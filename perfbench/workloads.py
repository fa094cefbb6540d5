"""The benchmark's workloads: generated config files, warm-up and checks.

Each workload turns ``--seed`` into config files, drives levyem only through
``levyem.cli.main`` and checks the artifacts it writes.  At the default seed
the artifacts must also match the sha256 digests in ``golden.json``.

Why these three (see README.md for the full map):

* ``mc-stable`` -- the A2 model and ladder at 512 paths.  The CMS sampler
  is cheap, so the Python-level Euler stepping in the harness dominates.
* ``mc-tempered`` -- tempered stable noise through the jump-decomposition
  sampler (64 jumps per step) with the 4-node ``timeint`` drift, so
  sampling dominates.
* ``spectral`` -- ``density`` on a 2^18-point grid then ``kolmogorov``; FFT-
  and memory-bound, with no sampling and no Monte Carlo.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("mc-stable", "mc-tempered", "spectral")
DEFAULT_SEED = 0
GOLDEN = Path(__file__).with_name("golden.json")

# experiment seeds at --seed 0; A2 is the acceptance seed
_MC_BASE_SEED = {"mc-stable": 20240102, "mc-tempered": 20240105}
_DENSITY_T = (0.05, 0.1, 0.2, 0.4, 0.8)
_KOLMOGOROV_T = 0.25

# "full" keeps each Monte Carlo report short (about 0.6 s and 0.4 s) so that a
# run holds dozens of them; "tiny" is for the benchmark's own tests
_TINY_MC = {"n_list": "8,16,32", "n_ref": 256, "paths": 100}
_SIZES = {
    "full": {"mc-stable": {"n_list": "8,16,32,64,128,256", "n_ref": 2048, "paths": 512},
             "mc-tempered": {"n_list": "8,16,32,64", "n_ref": 512, "paths": 100},
             "spectral": {"density_grid": "", "kol_points": 4096, "kol_n_time": 512}},
    "tiny": {"mc-stable": _TINY_MC, "mc-tempered": _TINY_MC,
             "spectral": {"density_grid": "half_width = 160.0\npoints = 16384\n",
                          "kol_points": 1024, "kol_n_time": 128}},
}


@dataclass
class Inputs:
    """Generated config texts for one workload, seed and size."""

    workload: str
    seed: int
    scale: str
    configs: dict  # command -> config file text
    paths: int = 0
    n_ref: int = 0
    levels: int = 0


def make_inputs(workload: str, seed: int, scale: str = "full") -> Inputs:
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    size = _SIZES[scale][workload]
    if workload == "spectral":
        return _spectral_inputs(seed, scale, size)
    paths = size["paths"]
    if workload == "mc-stable":
        model = "family = isotropic_stable\nalpha = 1.5\n"
        drift, variant = "cos", "frozen"
    else:
        model = "family = tempered_stable\nalpha = 1.5\nm = 1.0\n"
        drift, variant = "cos_time", "timeint"
    text = (f"[model]\n{model}\n[drift]\nname = {drift}\n\n[experiment]\n"
            f"t = 1.0\np = 1.0\nn_list = {size['n_list']}\nn_ref = {size['n_ref']}\n"
            f"paths = {paths}\nseed = {_MC_BASE_SEED[workload] + seed}\n"
            f"variant = {variant}\n")
    return Inputs(workload, seed, scale, {"converge": text}, paths=paths,
                  n_ref=size["n_ref"], levels=len(size["n_list"].split(",")))


def _spectral_inputs(seed: int, scale: str, size: dict) -> Inputs:
    # seeds other than the default jitter the density times by up to 5% and
    # the Kolmogorov horizon by up to 2%; the work done stays the same
    t_list, horizon = _DENSITY_T, _KOLMOGOROV_T
    if seed != DEFAULT_SEED:
        gen = np.random.default_rng(seed)
        t_list = tuple(float(t * (1.0 + 0.05 * (2.0 * u - 1.0)))
                       for t, u in zip(_DENSITY_T, gen.random(len(_DENSITY_T))))
        horizon = float(_KOLMOGOROV_T * (1.0 + 0.02 * (2.0 * gen.random() - 1.0)))
    model = "[model]\nfamily = isotropic_stable\nalpha = 1.5\n"
    density = (f"{model}\n[density]\nt_list = {','.join(repr(t) for t in t_list)}\n"
               f"{size['density_grid']}")
    kolmogorov = (f"{model}\n[drift]\nname = cos\n\n[kolmogorov]\nt = {horizon!r}\n"
                  f"points = {size['kol_points']}\nhalf_width = {16 * math.pi!r}\n"
                  f"n_time = {size['kol_n_time']}\ntarget_ratio = 0.5\n")
    return Inputs("spectral", seed, scale,
                  {"density": density, "kolmogorov": kolmogorov})


def write_configs(inputs: Inputs, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for command, text in inputs.configs.items():
        path = directory / f"{command}.cfg"
        path.write_text(text)
        out[command] = path
    return out


def warm_up(levyem, cfg_paths: dict) -> None:
    """Parse the configs and pay every first-call cost the report would
    otherwise carry: the first increments (and its truncation threshold)
    for Monte Carlo, the suggested grid and the psi grids for spectral."""
    cli, samplers, spectral = levyem.cli, levyem.samplers, levyem.spectral
    if "converge" in cfg_paths:
        config = cli.build_experiment(cli.load_config(cfg_paths["converge"]))
        samplers.increments(config.model, config.T, config.n_ref,
                            levyem.RngStream(config.seed, 0))
        return
    cfg = cli.load_config(cfg_paths["density"])
    model = cli.build_model(cfg)
    t_list = [float(v) for v in cfg["density"]["t_list"].split(",")]
    if "points" in cfg["density"]:
        grid = spectral.SpaceGrid(float(cfg["density"]["half_width"]),
                                  int(cfg["density"]["points"]))
    else:
        grid = spectral.suggest_grid(model, min(t_list), 2.0 * max(t_list),
                                     tail_target=3e-6, max_points=2 ** 18)
    kcfg = cli.load_config(cfg_paths["kolmogorov"])
    kgrid = spectral.SpaceGrid(float(kcfg["kolmogorov"]["half_width"]),
                               int(kcfg["kolmogorov"]["points"]))
    for g in (grid, kgrid):
        spectral.semigroup_apply(np.zeros(g.n_points), 0.0, model, g)
    cli.build_drift(kcfg)


# ----------------------------------------------------------------------
# operations and their checks
# ----------------------------------------------------------------------

@dataclass
class OpResult:
    """One ``cli.main`` call: its wall time and every check it failed."""

    command: str
    seconds: float
    failures: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # file name -> bytes
    bytes_written: int = 0


def run_cli(levyem, command: str, cfg: Path, out_dir: Path, clock, extra,
            span) -> OpResult:
    """Call ``levyem.cli.main`` once into a fresh ``out_dir`` and time it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [command, "--config", str(cfg), "--out-dir", str(out_dir), *extra]
    sink = io.StringIO()
    failures = []
    t0 = clock()
    try:
        with span(), contextlib.redirect_stdout(sink):
            code = levyem.cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        code = None
        failures.append(f"{command} raised {type(exc).__name__}: {exc}")
    seconds = clock() - t0
    if code is not None and code != 0:
        failures.append(f"{command} exited with code {code}")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} \
        if out_dir.is_dir() else {}
    return OpResult(command, seconds, failures, files,
                    sum(len(b) for b in files.values()))


def _load(op: OpResult, name: str):
    if name not in op.artifacts:
        op.failures.append(f"{op.command}: {name} missing")
        return None
    return json.loads(op.artifacts[name])


def check(op: OpResult, inputs: Inputs) -> None:
    """Append every failed correctness check of ``op`` to ``op.failures``."""
    if op.command == "converge":
        report = _load(op, "report.json")
        if report is not None:
            if report["table"]["flagged"] != 0:
                op.failures.append(f"converge: {report['table']['flagged']} paths flagged")
            if report["verdict"] == "violates-bound":
                op.failures.append("converge: verdict violates-bound")
            if report["table"]["paths"] != inputs.paths:
                op.failures.append("converge: report covers the wrong number of paths")
        name = "report.json"
    elif op.command == "density":
        summary = _load(op, "density_summary.json")
        if summary is not None:
            if abs(summary["slope"] - summary["expected_slope"]) > 0.01:
                op.failures.append(f"density: slope {summary['slope']:.4f} is not "
                                   f"within 0.01 of {summary['expected_slope']:.4f}")
            if summary["propagation_ok"] is not True:
                op.failures.append("density: propagation check failed")
            for t in summary["t_list"]:
                if f"density_t{t:g}.csv" not in op.artifacts:
                    op.failures.append(f"density: density_t{t:g}.csv missing")
        name = "density_summary.json"
    else:
        summary = _load(op, "kolmogorov_summary.json")
        if summary is not None:
            if summary.get("certified") is not True:
                op.failures.append("kolmogorov: not certified")
            if not summary.get("residual", math.inf) <= 5e-3:
                op.failures.append(f"kolmogorov: residual {summary.get('residual')} > 5e-3")
        if "kolmogorov_u0.csv" not in op.artifacts:
            op.failures.append("kolmogorov: kolmogorov_u0.csv missing")
        name = "kolmogorov_summary.json"
    if inputs.seed == DEFAULT_SEED and inputs.scale == "full" and name in op.artifacts:
        expected = json.loads(GOLDEN.read_text())[inputs.workload][name]
        if hashlib.sha256(op.artifacts[name]).hexdigest() != expected:
            op.failures.append(f"{name} differs from its golden sha256")
