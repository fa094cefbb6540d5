"""Command-line front end.

Every result the CLI emits is produced by calling the library with the same
configuration and seed, so files are byte-identical to a direct library run.
Configs are flat key=value sections, one experiment per file; seeds are
mandatory wherever randomness is involved.

Exit codes: 0 success / consistent, 2 theory violation or balance failure,
1 operational error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import engine, harness, models, samplers, spectral
from .errors import ConfigError, LevyemError
from .rng import RngStream

_SECTION_KEYS = {
    "model": {"family", "alpha", "m", "lambda_tail", "dim", "rho"},
    "drift": {"name", "beta", "eta", "c"},
    "experiment": {"t", "p", "n_list", "n_ref", "paths", "seed", "tol", "variant",
                   "x0", "threads"},
    "density": {"t_list", "half_width", "points"},
    "kolmogorov": {"t", "n_time", "points", "half_width", "source", "tol",
                   "max_iter", "target_ratio", "force_unbalanced"},
    "sample": {"t", "n", "seed", "out", "csv"},
}


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str.lower
    read = parser.read(path)
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
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(section, key, f"cannot parse {raw!r}") from exc


def _values(conv):
    """Converter for a comma-separated list of values."""
    return lambda raw: tuple(conv(v) for v in raw.replace(" ", "").split(","))


def build_model(cfg) -> models.LevyModel:
    family = _get(cfg, "model", "family", required=True)
    alpha = _get(cfg, "model", "alpha", float)
    m = _get(cfg, "model", "m", float)
    lam = _get(cfg, "model", "lambda_tail", float)
    dim = _get(cfg, "model", "dim", int, default=1)
    rho = _get(cfg, "model", "rho", float)

    def need(name, value):
        if value is None:
            raise ConfigError("model", name, f"required for family {family}")
        return value

    if family == "brownian":
        return models.LevyModel.brownian(dim=dim)
    if family == "isotropic_stable":
        return models.LevyModel.isotropic_stable(need("alpha", alpha), dim=dim)
    if family == "relativistic_stable":
        return models.LevyModel.relativistic_stable(need("alpha", alpha), need("m", m), dim=dim)
    if family == "tempered_stable":
        return models.LevyModel.tempered_stable(need("alpha", alpha), need("m", m))
    if family == "lamperti_stable":
        return models.LevyModel.lamperti_stable(need("alpha", alpha), need("m", m), dim=dim)
    if family == "truncated_stable":
        return models.LevyModel.truncated_stable(need("alpha", alpha))
    if family == "layered_stable":
        return models.LevyModel.layered_stable(need("alpha", alpha), need("lambda_tail", lam))
    if family == "subordinated_bm":
        rho = need("rho", rho)
        sub = models.SubordinatorSpec.tempered(rho, m) if m is not None \
            else models.SubordinatorSpec.stable(rho)
        return models.LevyModel.subordinated_bm(sub, dim=dim)
    raise ConfigError("model", "family", f"unknown family {family!r}")


def model_section(model: models.LevyModel) -> dict:
    """Serialise a catalog model back to its [model] config keys."""
    out = {"family": model.family.value, "dim": str(model.dim)}
    for key in ("alpha", "m", "lambda_tail"):
        value = getattr(model, key)
        if value is not None:
            out[key] = repr(value)
    if model.sub is not None:
        out["rho"] = repr(model.sub.rho)
        if model.sub.m:
            out["m"] = repr(model.sub.m)
    return out


def build_drift(cfg) -> engine.DriftSpec:
    name = _get(cfg, "drift", "name", required=True)
    if name not in engine.DRIFT_CATALOG:
        raise ConfigError("drift", "name",
                          f"unknown drift {name!r}; catalog: {sorted(engine.DRIFT_CATALOG)}")
    kwargs = {}
    beta = _get(cfg, "drift", "beta", float)
    c = _get(cfg, "drift", "c", float)
    if beta is not None:
        if name != "rough_sin":
            raise ConfigError("drift", "beta", "only the rough_sin drift takes beta")
        kwargs["beta"] = beta
    if c is not None:
        if name != "const":
            raise ConfigError("drift", "c", "only the const drift takes c")
        kwargs["c"] = c
    return engine.DRIFT_CATALOG[name](**kwargs)


def build_experiment(cfg, seed_override=None, threads=None) -> harness.ExperimentConfig:
    model = build_model(cfg)
    drift = build_drift(cfg)
    n_values = _get(cfg, "experiment", "n_list", _values(int), required=True)
    x0 = _get(cfg, "experiment", "x0", _values(float), default=0.0)
    try:
        x0 = engine.as_state(x0, model.dim)
    except ValueError as exc:
        raise ConfigError("experiment", "x0", str(exc)) from exc
    seed = seed_override if seed_override is not None \
        else _get(cfg, "experiment", "seed", int, required=True)
    return harness.ExperimentConfig(
        model=model,
        drift=drift,
        x0=x0,
        T=_get(cfg, "experiment", "t", float, default=1.0),
        p=_get(cfg, "experiment", "p", float, required=True),
        n_list=n_values,
        n_ref=_get(cfg, "experiment", "n_ref", int, required=True),
        paths=_get(cfg, "experiment", "paths", int, required=True),
        seed=seed,
        tol=_get(cfg, "experiment", "tol", float, default=0.15),
        variant=_get(cfg, "experiment", "variant", str, default="frozen"),
        threads=threads if threads is not None
        else _get(cfg, "experiment", "threads", int, default=0),
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_check(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    drift = build_drift(cfg)
    p = _get(cfg, "experiment", "p", float, default=1.0)
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
    cfg = load_config(args.config)
    config = build_experiment(cfg, seed_override=args.seed_override, threads=args.threads)
    report = harness.run_experiment(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.csv").write_text(report.to_csv())
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    print(f"fitted rate {slope} vs predicted {report.prediction.rate:.4f} "
          f"-> {report.verdict}")
    return 0 if report.verdict != harness.VERDICT_VIOLATES else 2


def cmd_density(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    t_list = _get(cfg, "density", "t_list", _values(float), required=True)
    half_width = _get(cfg, "density", "half_width", float)
    points = _get(cfg, "density", "points", int)
    if half_width is not None and points is not None:
        grid = spectral.SpaceGrid(half_width, points)
    else:
        # gradient norms tolerate far smaller boxes than unit-mass tails
        grid = spectral.suggest_grid(model, min(t_list), 2.0 * max(t_list),
                                     tail_target=3e-6, max_points=2 ** 18)
    result = spectral.gradient_scaling_exponent(model, t_list, grid)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t in t_list:
        spectral.density_fft(model, t, grid).to_csv(out / f"density_t{t:g}.csv",
                                                    max_rows=4096)
    summary = {
        "model": model.describe(),
        "t_list": list(result.t_values),
        "grad_l1_norms": list(result.grad_norms),
        "second_l1_norms_2t": list(result.second_norms_2t),
        "slope": result.slope,
        "slope_half_width": result.half_width,
        "expected_slope": -1.0 / model.gradient_index,
        "propagation_ok": result.propagation_ok,
        "grid": {"half_width": grid.half_width, "points": grid.n_points},
    }
    (out / "density_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"gradient norm slope {result.slope:.4f} "
          f"(theory {-1.0 / model.gradient_index:.4f})")
    return 0


def cmd_kolmogorov(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    drift = build_drift(cfg)
    T = _get(cfg, "kolmogorov", "t", float, default=0.25)
    n_time = _get(cfg, "kolmogorov", "n_time", int, default=128)
    points = _get(cfg, "kolmogorov", "points", int, default=2048)
    half_width = _get(cfg, "kolmogorov", "half_width", float, default=16 * math.pi)
    source = _get(cfg, "kolmogorov", "source", str, default="drift")
    tol = _get(cfg, "kolmogorov", "tol", float, default=1e-8)
    max_iter = _get(cfg, "kolmogorov", "max_iter", int, default=60)
    target_ratio = _get(cfg, "kolmogorov", "target_ratio", float, default=0.95)
    force = _get(cfg, "kolmogorov", "force_unbalanced", bool, default=False)
    grid = spectral.SpaceGrid(half_width, points)

    if source == "drift":
        g = np.asarray(drift(0.0, grid.nodes), dtype=float)
    elif source.startswith("mode:"):
        try:
            k = int(source.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("kolmogorov", "source", f"cannot parse {source!r}") from exc
        if not 0 <= k < points:
            raise ConfigError("kolmogorov", "source", f"mode {k} outside [0, {points})")
        g = np.cos(grid.dual[k] * grid.nodes)
    else:
        raise ConfigError("kolmogorov", "source", f"unknown source {source!r}")

    kappa = models.kappa_exponent(model.gradient_index, model.moments.gamma0, drift.beta)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kappa >= 1.0 and not force:
        summary = {"kappa": kappa, "certified": False,
                   "reason": "balance condition violated (kappa >= 1)"}
        (out / "kolmogorov_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"kappa = {kappa:.4f} >= 1: certification refused")
        return 2

    sol = spectral.picard_solve(drift, g, T, model, grid, n_time=n_time,
                                max_iter=max_iter, tol=tol,
                                target_ratio=target_ratio, force_unbalanced=force)
    residual = spectral.kolmogorov_residual(sol, drift, g, model)
    summary = {
        "model": model.describe(),
        "horizon": sol.horizon,
        "halvings": sol.halvings,
        "kappa": sol.kappa,
        "converged": sol.converged,
        "certified": sol.certified,
        "contraction_history": list(sol.diffs),
        "contraction_ratios": list(sol.ratios),
        "residual": residual,
        "certificate": sol.certificate,
    }
    (out / "kolmogorov_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    u0 = sol.u[0]
    du0 = sol.grad_u[0]
    data = np.column_stack([grid.nodes, u0, du0])
    np.savetxt(out / "kolmogorov_u0.csv", data, delimiter=",", comments="",
               newline="\n", header="x,u,grad_u")
    print(f"horizon {sol.horizon:g} (halved {sol.halvings}x), kappa {sol.kappa:.4f}, "
          f"residual {residual:.2e}, certified={sol.certified}")
    return 0 if sol.certified else 2


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    T = _get(cfg, "sample", "t", float, default=1.0)
    n = _get(cfg, "sample", "n", int, required=True)
    seed = args.seed_override if args.seed_override is not None \
        else _get(cfg, "sample", "seed", int, required=True)
    name = _get(cfg, "sample", "out", str, default="increments.bin")
    write_csv = _get(cfg, "sample", "csv", bool, default=False)
    batch = samplers.increments(model, T, n, RngStream(seed, 0))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samplers.save_batch(batch, out / name)
    if write_csv:
        np.savetxt(out / (name + ".csv"), batch.values, delimiter=",", comments="",
                   newline="\n", header=",".join(f"dL_{i+1}" for i in range(model.dim)))
    print(f"wrote {n} increments (dt={batch.dt:g}) to {out / name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="levyem",
                                     description="Levy-driven SDE simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check", cmd_check), ("converge", cmd_converge),
                     ("density", cmd_density), ("kolmogorov", cmd_kolmogorov),
                     ("sample", cmd_sample)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed-override", type=int, default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LevyemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
