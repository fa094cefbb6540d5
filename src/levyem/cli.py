"""Command-line front end.

Every result the CLI emits is produced by calling the library with the same
configuration and seed, so files are byte-identical to a direct library run.
Configs are flat key=value sections, one experiment per file; seeds are
mandatory wherever randomness is involved.

Exit codes: 0 success / consistent, 2 theory violation or balance failure,
1 operational or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import engine, harness, models, samplers, spectral
from .errors import ConfigError, DomainError, LevyemError
from .rng import RngStream

_SECTION_KEYS = {
    "model": {"family", "alpha", "m", "lambda_tail", "dim", "rho"},
    "drift": {"name", "beta", "c"},
    "experiment": {"t", "p", "n_list", "n_ref", "paths", "seed", "variant", "x0"},
    "density": {"t_list", "half_width", "points"},
    "kolmogorov": {"t", "n_time", "points", "half_width", "target_ratio"},
    "sample": {"t", "n", "seed", "csv"},
}


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str.lower
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("file", "", str(exc)) from exc
    if not read:
        raise ConfigError("file", "", f"cannot read config {path}")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(section, "", "unknown section")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(section, key, "unknown key")
    return parser


def _get(cfg, section, key, conv=str, default=None, required=False):
    if section not in cfg or key not in cfg[section]:
        if required:
            raise ConfigError(section, key, "missing required key")
        return default
    raw = cfg[section][key]
    try:
        if conv is bool:
            return cfg.getboolean(section, key)
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(section, key, f"cannot parse {raw!r}") from exc
    except OverflowError as exc:
        raise ConfigError(section, key, str(exc)) from exc


def _given(cfg, section, convs: dict) -> dict:
    """The keys of ``convs`` that ``section`` sets; the rest keep library defaults."""
    return {key: value for key, conv in convs.items()
            if (value := _get(cfg, section, key, conv)) is not None}


def _finite(raw) -> float:
    """A float key's converter: nan and inf are refused like unparsable text."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _count(raw) -> int:
    """A count key's converter: a count no array can hold is refused."""
    value = int(raw)
    if value > samplers.MAX_ELEMENTS:
        raise OverflowError(f"{value} is more elements than an array can hold "
                            f"(at most {samplers.MAX_ELEMENTS})")
    return value


def _values(conv):
    """Converter for a comma-separated list of values."""
    return lambda raw: tuple(conv(v) for v in raw.replace(" ", "").split(","))


def build_model(cfg) -> models.LevyModel:
    """The [model] section as a LevyModel; a key the family does not take is
    refused, never dropped."""
    name = _get(cfg, "model", "family", required=True)
    try:
        family = models.Family(name)
    except ValueError:
        raise ConfigError("model", "family", f"unknown family {name!r}") from None
    params = {key: _get(cfg, "model", key, _finite) for key in ("alpha", "m", "lambda_tail")}
    dim = _get(cfg, "model", "dim", _count, default=1)
    rho = _get(cfg, "model", "rho", _finite)
    try:
        if family is models.Family.SUBORDINATED_BM:
            if rho is None:
                raise ConfigError("model", "rho", f"required for family {name}")
            m = params.pop("m")  # the subordinator's tilt
            sub = models.SubFamily.STABLE if m is None else models.SubFamily.TEMPERED_STABLE
            params["sub"] = models.SubordinatorSpec(sub, rho, 0.0 if m is None else m)
        elif rho is not None:
            raise ConfigError("model", "rho", f"family {name} takes no rho")
        model = models.LevyModel(family, dim=dim, **params)
    except DomainError as exc:
        raise ConfigError("model", "", str(exc)) from exc
    try:
        return models.check_rate_scope(model)
    except DomainError as exc:
        raise ConfigError("model", "alpha", str(exc).removeprefix("alpha ")) from exc


def _build_line_model(cfg) -> models.LevyModel:
    """The [model] of ``density`` and ``kolmogorov``, which work on a line:
    dim > 1 is refused, never reduced to its 1-D marginal."""
    model = build_model(cfg)
    if model.dim > 1:
        raise ConfigError("model", "dim", f"{model.dim} > 1; this command is one-dimensional")
    return model


def build_drift(cfg) -> engine.DriftSpec:
    name = _get(cfg, "drift", "name", required=True)
    if name not in engine.DRIFT_CATALOG:
        raise ConfigError("drift", "name",
                          f"unknown drift {name!r}; catalog: {sorted(engine.DRIFT_CATALOG)}")
    kwargs = {}
    beta = _get(cfg, "drift", "beta", _finite)
    c = _get(cfg, "drift", "c", _finite)
    if beta is not None:
        if name != "rough_sin":
            raise ConfigError("drift", "beta", "only the rough_sin drift takes beta")
        kwargs["beta"] = beta
    if c is not None:
        if name != "const":
            raise ConfigError("drift", "c", "only the const drift takes c")
        kwargs["c"] = c
    return engine.DRIFT_CATALOG[name](**kwargs)


def build_experiment(cfg) -> harness.ExperimentConfig:
    model = build_model(cfg)
    drift = build_drift(cfg)
    n_values = _get(cfg, "experiment", "n_list", _values(_count), required=True)
    x0 = _get(cfg, "experiment", "x0", _values(_finite), default=0.0)
    try:
        x0 = engine.as_state(x0, model.dim)
    except ValueError as exc:
        raise ConfigError("experiment", "x0", str(exc)) from exc
    return harness.ExperimentConfig(
        model=model,
        drift=drift,
        x0=x0,
        T=_get(cfg, "experiment", "t", _finite, default=1.0),
        p=_get(cfg, "experiment", "p", _finite, required=True),
        n_list=n_values,
        n_ref=_get(cfg, "experiment", "n_ref", _count, required=True),
        paths=_get(cfg, "experiment", "paths", _count, required=True),
        seed=_get(cfg, "experiment", "seed", int, required=True),
        **_given(cfg, "experiment", {"variant": str}),
    )


def _write_json(path, obj) -> None:
    """Every JSON artifact: two-space indent, sorted keys, a trailing newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    drift = build_drift(cfg)
    p = _get(cfg, "experiment", "p", _finite, default=1.0)
    pred = models.predict_for_model(model, drift.beta, drift.eta, p)
    mi = model.moments
    margin = models.balance_margin(model.gradient_index, pred.gamma0_eff, drift.beta)
    kappa = models.kappa_exponent(model.gradient_index, pred.gamma0_eff, drift.beta)
    gamma_inf = "inf" if math.isinf(mi.gamma_inf) else repr(mi.gamma_inf)
    print(f"model: {model.describe()}")
    print(f"gamma0 = {mi.gamma0}{' (open infimum)' if mi.gamma0_open else ''}, "
          f"gamma_inf = {gamma_inf}, gradient index = {model.gradient_index}")
    print(f"balance margin = {margin:.6f}, kappa = {kappa:.6f}")
    print(f"predicted rate = {pred.rate:.4f}"
          + (" (supremum over admissible gamma0)" if pred.is_supremum else ""))
    print(f"balance: {'PASS' if pred.balance_ok else 'FAIL'}")
    return 0 if pred.balance_ok else 2


def cmd_converge(args) -> int:
    if args.threads < 0:
        raise DomainError(f"threads must be >= 0, got {args.threads}")
    cfg = load_config(args.config)
    report = harness.run_experiment(build_experiment(cfg))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report.to_dict())
    (out / "report.csv").write_text(report.to_csv())
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    print(f"fitted rate {slope} vs predicted {report.prediction.rate:.4f} "
          f"-> {report.verdict}")
    return 0 if report.verdict != harness.VERDICT_VIOLATES else 2


def cmd_density(args) -> int:
    cfg = load_config(args.config)
    model = _build_line_model(cfg)
    t_list = _get(cfg, "density", "t_list", _values(_finite), required=True)
    half_width = _get(cfg, "density", "half_width", _finite)
    points = _get(cfg, "density", "points", _count)
    if (half_width is None) != (points is None):
        missing = "points" if points is None else "half_width"
        raise ConfigError("density", missing, "required when the grid is given")
    grid = None if points is None else spectral.SpaceGrid(half_width, points)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_csv(table):
        table.to_csv(out / f"density_t{table.t:g}.csv")

    # each CSV is written as its table is computed, so a table that fails
    # leaves the earlier CSVs and no summary
    result = spectral.gradient_scaling_exponent(model, t_list, grid, on_table=write_csv)
    summary = {
        "model": model.describe(),
        "t_list": list(result.t_values),
        "grad_l1_norms": list(result.grad_norms),
        "second_l1_norms_2t": list(result.second_norms_2t),
        "slope": result.slope,
        "slope_half_width": result.half_width,
        "expected_slope": -1.0 / model.gradient_index,
        "propagation_ok": result.propagation_ok,
        "grid": {"half_width": result.grid.half_width, "points": result.grid.n_points},
    }
    _write_json(out / "density_summary.json", summary)
    print(f"gradient norm slope {result.slope:.4f} "
          f"(theory {-1.0 / model.gradient_index:.4f})")
    return 0


def cmd_kolmogorov(args) -> int:
    cfg = load_config(args.config)
    model = _build_line_model(cfg)
    drift = build_drift(cfg)
    T = _get(cfg, "kolmogorov", "t", _finite, default=0.25)
    points = _get(cfg, "kolmogorov", "points", _count, default=2048)
    half_width = _get(cfg, "kolmogorov", "half_width", _finite, default=16 * math.pi)
    solver = _given(cfg, "kolmogorov", {"n_time": _count, "target_ratio": _finite})
    if solver.get("n_time", 2) < 2:
        raise ConfigError("kolmogorov", "n_time", f"{solver['n_time']} is below 2; "
                          "the residual needs an interior time row")
    grid = spectral.SpaceGrid(half_width, points)

    kappa = models.kappa_exponent(model.gradient_index, model.moments.gamma0, drift.beta)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kappa >= 1.0:
        summary = {"kappa": kappa, "certified": False,
                   "reason": "balance condition violated (kappa >= 1)"}
        _write_json(out / "kolmogorov_summary.json", summary)
        print(f"kappa = {kappa:.4f} >= 1: certification refused")
        return 2

    sol = spectral.picard_solve(drift, None, T, model, grid, **solver)
    summary = {
        "model": model.describe(),
        "horizon": sol.horizon,
        "halvings": sol.halvings,
        "kappa": sol.kappa,
        "converged": sol.converged,
        "certified": sol.certified,
        "contraction_history": list(sol.diffs),
        "contraction_ratios": list(sol.ratios),
        "residual": sol.residual,
        "certificate": sol.certificate,
    }
    _write_json(out / "kolmogorov_summary.json", summary)
    spectral.write_csv(out / "kolmogorov_u0.csv", "x,u,grad_u",
                       np.column_stack([grid.nodes, sol.u[0], sol.grad_u[0]]))
    print(f"horizon {sol.horizon:g} (halved {sol.halvings}x), kappa {sol.kappa:.4f}, "
          f"residual {sol.residual:.2e}, certified={sol.certified}")
    return 0 if sol.certified else 2


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    T = _get(cfg, "sample", "t", _finite, default=1.0)
    n = _get(cfg, "sample", "n", _count, required=True)
    seed = _get(cfg, "sample", "seed", int, required=True)
    write_csv = _get(cfg, "sample", "csv", bool, default=False)
    batch = samplers.increments(model, T, n, RngStream(seed, 0))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump = out / "increments.bin"
    samplers.save_batch(batch, dump)
    if write_csv:
        spectral.write_csv(f"{dump}.csv",
                           ",".join(f"dL_{i+1}" for i in range(model.dim)), batch.values)
    print(f"wrote {n} increments (dt={batch.dt:g}) to {dump}")
    return 0


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levyem",
                                     description="Levy-driven SDE simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check", cmd_check), ("converge", cmd_converge),
                     ("density", cmd_density), ("kolmogorov", cmd_kolmogorov),
                     ("sample", cmd_sample)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=".")
        if name == "converge":
            p.add_argument("--threads", type=int, default=0,
                           help="accepted and ignored: paths always run serially")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:  # the parser is built once: in-process callers run main many times
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (LevyemError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
