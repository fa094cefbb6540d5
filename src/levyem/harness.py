"""Monte Carlo measurement of strong convergence rates.

For each path the fine increments are drawn once from a private counter
stream; the reference path at n_ref and every coupled coarse path share that
noise, so per-path sup errors isolate discretisation error.  Per-n means of
sup-error^p are fitted on a log-log scale and compared against the predicted
exponent min{1, p beta/gamma0, p eta}.

Paths run serially, one block of ``ExperimentConfig.chunk`` paths at a
time, and each path draws from its own stream; so the report does not depend
on the block size, which only bounds the memory one block holds.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .engine import VARIANTS, DriftSpec, as_state, euler_ladder
from .errors import DegenerateExactError, DomainError, ExperimentAbortedError
from .fitting import PowerLawFit, fit_decay_rate, fit_powerlaw
from .models import (LevyModel, RatePrediction, SubordinatorSpec,
                     check_rate_scope, predict_for_model)
from .rng import RngStream
from .samplers import increments, sample_subordinator

VERDICT_CONSISTENT = "consistent"
VERDICT_FASTER = "faster-than-bound"
VERDICT_VIOLATES = "violates-bound"
VERDICT_DEGENERATE = "degenerate-exact"


@dataclass(frozen=True)
class ExperimentConfig:
    model: LevyModel
    drift: DriftSpec
    x0: float | Sequence[float]
    T: float
    p: float
    n_list: tuple
    n_ref: int
    paths: int
    seed: int
    tol: float = 0.15
    variant: str = "frozen"
    chunk: ClassVar[int] = 256  # paths per block

    def __post_init__(self):
        check_rate_scope(self.model)
        if not (0 < self.T < math.inf and 0 < self.p < math.inf):
            raise DomainError(f"need finite T > 0 and p > 0, got T={self.T} and p={self.p}")
        if not 0 <= self.tol < math.inf:
            raise DomainError(f"tol must be finite and >= 0, got {self.tol}")
        if self.paths < 100:
            raise DomainError("need at least 100 paths")
        RngStream(self.seed)  # rejects a seed outside the 64-bit key range
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}")
        ns = tuple(int(n) for n in self.n_list)
        if any(n < 1 for n in ns) or list(ns) != sorted(set(ns)):
            raise DomainError("n_list must be strictly increasing positive integers")
        if len(ns) < 3:
            raise DomainError(f"n_list needs at least 3 levels to fit a rate, got {len(ns)}")
        object.__setattr__(self, "n_list", ns)
        for n in ns:
            if self.n_ref % n:
                raise DomainError(f"n_ref={self.n_ref} is not divisible by n={n}")
        if self.n_ref < 8 * max(ns):
            raise DomainError("n_ref must be at least 8 x max(n_list)")
        object.__setattr__(self, "x0", tuple(as_state(self.x0, self.model.dim).tolist()))

    def prediction(self) -> RatePrediction:
        """The predicted rate; its ``p`` is the moment order the Monte Carlo
        uses, clamped to gamma_inf."""
        return predict_for_model(self.model, self.drift.beta, self.drift.eta, self.p)


@dataclass(frozen=True)
class ErrorTable:
    n_values: tuple
    means: tuple
    stderrs: tuple
    paths: int
    flagged: int


@dataclass(frozen=True)
class ConvergenceReport:
    config_summary: dict
    table: ErrorTable
    prediction: RatePrediction
    verdict: str
    fitted: Optional[PowerLawFit] = None
    notes: tuple = field(default_factory=tuple)

    @property
    def slope(self) -> Optional[float]:
        return None if self.fitted is None else self.fitted.exponent

    def to_dict(self) -> dict:
        return {
            "config": self.config_summary,
            "table": {
                "n": list(self.table.n_values),
                "mean": list(self.table.means),
                "stderr": list(self.table.stderrs),
                "paths": self.table.paths,
                "flagged": self.table.flagged,
            },
            "fit": None if self.fitted is None else {
                "slope": self.fitted.exponent,
                "slope_per_p": self.fitted.exponent / self.config_summary["p"],
                "intercept": self.fitted.intercept,
                "half_width": self.fitted.half_width,
                "residual_rms": self.fitted.residual_rms,
            },
            "predicted": {
                "rate": self.prediction.rate,
                "gamma0_eff": self.prediction.gamma0_eff,
                "is_supremum": self.prediction.is_supremum,
                "balance_ok": self.prediction.balance_ok,
            },
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["n,mean,stderr,predicted_line"]
        anchor = None
        if self.fitted is not None:
            anchor = math.exp(self.fitted.intercept)
        for n, mean, se in zip(self.table.n_values, self.table.means, self.table.stderrs):
            pred = "" if anchor is None else repr(anchor * n ** (-self.prediction.rate))
            lines.append(f"{n},{mean!r},{se!r},{pred}")
        return "\n".join(lines) + "\n"


def _path_block(config: ExperimentConfig, p_eff: float, lo: int, hi: int):
    """Sup-error^p for paths lo..hi-1, one column per ladder entry."""
    noise = np.stack([increments(config.model, config.T, config.n_ref,
                                 RngStream(config.seed, k + 1)).values
                      for k in range(lo, hi)])
    factors = [config.n_ref // n for n in config.n_list]
    _, sup = euler_ladder(config.drift, config.x0, config.T, noise, factors,
                          config.variant)
    return (sup ** p_eff).T


def _error_powers(config: ExperimentConfig, p_eff: float) -> np.ndarray:
    """Sup-error^p of every path (rows) at every ladder entry (columns)."""
    M = config.paths
    values = np.empty((M, len(config.n_list)))
    for lo in range(0, M, config.chunk):
        hi = min(lo + config.chunk, M)
        values[lo:hi] = _path_block(config, p_eff, lo, hi)
    return values


def mc_strong_error(config: ExperimentConfig) -> ErrorTable:
    """Per-n sample mean and standard error of sup-error^p over config.paths;
    warns when p is clamped to gamma_inf."""
    pred = config.prediction()
    if pred.p_clamped:
        warnings.warn(f"moment order p={config.p} exceeds gamma_inf={pred.p}; clamping",
                      stacklevel=2)
    values = _error_powers(config, pred.p)
    M = config.paths
    good = np.all(np.isfinite(values), axis=1)
    flagged = int(M - good.sum())
    if flagged > 0.001 * M:
        raise ExperimentAbortedError(
            f"{flagged} of {M} paths were flagged non-finite (> 0.1%)")
    kept = values[good]
    m_eff = kept.shape[0]
    # correctly-rounded sums: the injection self-test requires the mean of
    # identical per-path values to reproduce them exactly
    means, stderrs = [], []
    for col in kept.T:
        mean = math.fsum(col) / m_eff
        var = math.fsum((v - mean) ** 2 for v in col) / (m_eff - 1)
        means.append(mean)
        stderrs.append(math.sqrt(var / m_eff))
    return ErrorTable(n_values=tuple(config.n_list),
                      means=tuple(means), stderrs=tuple(stderrs),
                      paths=m_eff, flagged=flagged)


def compare_to_theory(fitted_rate: float, predicted_rate: float, tol: float = 0.15) -> str:
    if fitted_rate < predicted_rate - tol:
        return VERDICT_VIOLATES
    if fitted_rate > predicted_rate + tol:
        return VERDICT_FASTER
    return VERDICT_CONSISTENT


def run_experiment(config: ExperimentConfig) -> ConvergenceReport:
    table = mc_strong_error(config)
    prediction = config.prediction()
    summary = {
        "model": config.model.describe(),
        "drift": config.drift.name,
        "beta": config.drift.beta,
        "eta": config.drift.eta,
        "x0": list(config.x0),
        "T": config.T,
        "p": config.p,
        "n_list": list(config.n_list),
        "n_ref": config.n_ref,
        "paths": config.paths,
        "seed": config.seed,
        "tol": config.tol,
        "variant": config.variant,
    }
    notes = []
    if prediction.p_clamped:
        notes.append(f"p clamped to gamma_inf={prediction.p}")
    try:
        fitted = fit_decay_rate(table.n_values, table.means)
    except DegenerateExactError:
        return ConvergenceReport(config_summary=summary, table=table,
                                 prediction=prediction, verdict=VERDICT_DEGENERATE,
                                 fitted=None, notes=tuple(notes))
    verdict = compare_to_theory(fitted.exponent, prediction.rate, config.tol)
    return ConvergenceReport(config_summary=summary, table=table,
                             prediction=prediction, verdict=verdict,
                             fitted=fitted, notes=tuple(notes))


# ----------------------------------------------------------------------
# subordination inverse-moment diagnostic
# ----------------------------------------------------------------------

GAUSS_INV_NORM_3D = math.sqrt(2.0 / math.pi)  # E 1/|Z| for Z ~ N(0, I_3)


@dataclass(frozen=True)
class InverseMomentResult:
    t_values: tuple
    estimates: tuple        # E[S_t^(-1/2)] * E|B_1^(d+2)|^(-1) per t
    slope: Optional[float]
    target_slope: float
    norm_constant: float    # MC estimate of E|B_1^(d+2)|^(-1)
    norm_stderr: float
    diverged: bool = False


def inverse_moment_scaling(sub: SubordinatorSpec, d: int, t_list, M: int,
                           seed: int) -> InverseMomentResult:
    """Fit the t-exponent of E[S_t^(-1/2)] E|B_1^(d+2)|^(-1).

    For a subordinator of lower index rho the product must scale like
    t^(-1/(2 rho)); the Brownian factor uses standard normal coordinates so
    the d+2 = 3 constant is sqrt(2/pi)."""
    if d < 1:
        raise DomainError("d must be >= 1")
    t_list = tuple(float(t) for t in t_list)
    if any(t <= 0 or t > 1 for t in t_list) or len(t_list) < 2:
        raise DomainError("t_list must contain at least two values in (0, 1]")
    z = RngStream(seed, 0).generator().standard_normal((M, d + 2))
    inv_norm = 1.0 / np.linalg.norm(z, axis=1)
    const = float(inv_norm.mean())
    const_se = float(inv_norm.std(ddof=1) / math.sqrt(M))

    estimates = []
    for k, t in enumerate(t_list):
        s = sample_subordinator(sub, t, RngStream(seed, k + 1), size=M)
        with np.errstate(divide="ignore"):
            inv = s ** (-0.5)
        estimates.append(float(np.mean(inv)) * const)
    target = -1.0 / (2.0 * sub.rho)
    if not all(math.isfinite(e) for e in estimates):
        return InverseMomentResult(t_values=t_list, estimates=tuple(estimates),
                                   slope=None, target_slope=target,
                                   norm_constant=const, norm_stderr=const_se,
                                   diverged=True)
    fit = fit_powerlaw(np.asarray(t_list), np.asarray(estimates))
    return InverseMomentResult(t_values=t_list, estimates=tuple(estimates),
                               slope=fit.exponent, target_slope=target,
                               norm_constant=const, norm_stderr=const_se)
