"""Monte Carlo measurement of strong convergence rates.

For each path the fine increments are drawn once from a private counter
stream; the reference path at n_ref and every coupled coarse path share that
noise, so per-path sup errors isolate discretisation error.  Per-n means of
sup-error^p are fitted on a log-log scale and compared against the predicted
exponent min{1, p beta/gamma0, p eta}.

Paths run serially, one block of ``ExperimentConfig.chunk`` paths at a
time, and each path draws from its own stream (seed, k + 1); so the report
does not depend on the block size, which only bounds the memory one block
holds.  A block builds one Philox bit generator and re-keys it to each
path's stream, which draws exactly what a fresh generator per path would.  A block
holds one time-major noise buffer of n_ref x chunk x d floats, filled from a
tile of a few paths at a time: the ladder keeps each path's current state and
running sup gap, not its fine path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .engine import VARIANTS, DriftSpec, as_state, euler_ladder
from .errors import DegenerateExactError, DomainError, ExperimentAbortedError
from .fitting import PowerLawFit, fit_decay_rate
from .models import LevyModel, RatePrediction, check_rate_scope, predict_for_model
from .rng import RngStream
from .samplers import MAX_ELEMENTS, increments

VERDICT_CONSISTENT = "consistent"
VERDICT_FASTER = "faster-than-bound"
VERDICT_VIOLATES = "violates-bound"
VERDICT_DEGENERATE = "degenerate-exact"

_TILE = 8  # paths drawn before they are copied into a block's noise buffer
_VERDICT_TOL = 0.15  # the fitted rate is consistent within this of the predicted one


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
    variant: str = "frozen"
    chunk: ClassVar[int] = 256  # paths per block

    def __post_init__(self):
        check_rate_scope(self.model)
        if not (0 < self.T < math.inf and 0 < self.p < math.inf):
            raise DomainError(f"need finite T > 0 and p > 0, got T={self.T} and p={self.p}")
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
        block = min(self.paths, self.chunk)  # the paths one noise buffer holds
        if self.n_ref > MAX_ELEMENTS // (block * self.model.dim):
            raise DomainError(f"n_ref={self.n_ref} steps of {block} paths in "
                              f"dim={self.model.dim} are more elements than an array "
                              f"can hold (at most {MAX_ELEMENTS})")
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

    def to_csv(self) -> str:
        lines = ["n,mean,stderr,predicted_line"]
        anchor = None
        if self.fitted is not None:
            anchor = math.exp(self.fitted.intercept)
        for n, mean, se in zip(self.table.n_values, self.table.means, self.table.stderrs):
            pred = "" if anchor is None else repr(anchor * n ** (-self.prediction.rate))
            lines.append(f"{n},{mean!r},{se!r},{pred}")
        return "\n".join(lines) + "\n"


def _noise_block(config: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Fine increments of paths lo..hi-1 in one time-major (n_ref, paths, d)
    buffer, so the step the ladder reads next, noise[:, i], is one
    contiguous row.  Paths are drawn a tile of _TILE at a time, and each
    tile's transpose is copied in, which writes every cache line of the
    buffer once.  No tile is named, so none outlives its copy."""
    buf = np.empty((config.n_ref, hi - lo, config.model.dim))
    gen = RngStream(config.seed).generator()  # re-keyed to stream k + 1 for path k
    for start in range(lo, hi, _TILE):
        stop = min(start + _TILE, hi)
        buf[:, start - lo:stop - lo] = np.stack(
            [increments(config.model, config.T, config.n_ref,
                        RngStream(config.seed, k + 1)._seat(gen)).values
             for k in range(start, stop)]).transpose(1, 0, 2)
    return buf


def _error_powers(config: ExperimentConfig, p_eff: float) -> np.ndarray:
    """Sup-error^p of every path (rows) at every ladder entry (columns)."""
    M = config.paths
    factors = [config.n_ref // n for n in config.n_list]
    values = np.empty((M, len(config.n_list)))
    for lo in range(0, M, config.chunk):
        hi = min(lo + config.chunk, M)
        # the noise buffer is not named, so it is freed before the next block's
        _, sup = euler_ladder(config.drift, config.x0, config.T,
                              _noise_block(config, lo, hi).transpose(1, 0, 2), factors,
                              config.variant)
        values[lo:hi] = (sup ** p_eff).T
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


def compare_to_theory(fitted_rate: float, predicted_rate: float, tol: float) -> str:
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
        "tol": _VERDICT_TOL,
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
    verdict = compare_to_theory(fitted.exponent, prediction.rate, _VERDICT_TOL)
    return ConvergenceReport(config_summary=summary, table=table,
                             prediction=prediction, verdict=verdict,
                             fitted=fitted, notes=tuple(notes))
