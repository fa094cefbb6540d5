"""Exact and bias-controlled increment samplers for the model catalog.

Exact routes
------------
* symmetric alpha-stable variates by the Chambers-Mallows-Stuck transform,
  with characteristic function exp(-scale^alpha |xi|^alpha) (so alpha = 2 is
  Gaussian with variance 2 scale^2, matching the catalog normalisation),
* one-sided stable subordinators by Kanter's transform,
* tempered (exponentially tilted) subordinators by rejection with automatic
  horizon splitting so every proposal accepts with probability >= exp(-0.7),
* Gaussian subordination sqrt(2 S) Z, which turns a subordinator increment S
  with Laplace exponent f into a vector increment with CF exp(-t f(|xi|^2)).

Bias-controlled route
---------------------
Jump densities without an exact sampler (tempered / truncated / layered
radial densities) are simulated by replacing jumps below a threshold eps by
a Gaussian with the matched variance sigma^2(eps) = int_{|y|<eps} y^2 nu(dy)
and drawing the remaining jumps as compound Poisson.  The metadata records
eps, sigma^2(eps) and the Poisson intensity; ``TruncationMeta.cf_bias_bound``
gives a rigorous bound on the induced characteristic-function error.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, UnsupportedModelError
from .models import (_DRAW_CHUNK, Family, LevyModel, SubFamily, SubordinatorSpec,
                     radial_density)
from .rng import RngStream, as_generator

# expected large-jump count per increment is capped: the pure bias rule
# sigma(eps) <= coeff * dt^(1/alpha) alone would demand astronomically many
# jumps for alpha > 1
DEFAULT_BIAS_COEFF = 0.05
DEFAULT_JUMP_BUDGET = 64.0
# the most hidden work behind one increment: expected jumps of the
# decomposition, or rejection pieces of the tempered subordinator; a request
# above it is refused before any draw
MAX_STEP_WORK = 2.0 ** 16
# the most float64 elements one array can hold: numpy refuses a larger count
# with a ValueError, before it tries to allocate
MAX_ELEMENTS = sys.maxsize // 8


def _time_scale(t: float, exponent: float) -> float:
    """The self-similar scale t ** exponent, refused where it overflows a float."""
    try:
        return float(t) ** exponent
    except OverflowError:
        raise DomainError(f"the scale t ** {exponent!r} overflows a float at t={t}") from None


def sample_stable(alpha: float, scale: float, count: int, rng) -> np.ndarray:
    """I.i.d. symmetric alpha-stable variates, CF exp(-scale^alpha |xi|^alpha)."""
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be finite and > 0, got {scale}")
    if count < 1:
        raise DomainError("count must be >= 1")
    gen = as_generator(rng)
    u = gen.uniform(-0.5 * np.pi, 0.5 * np.pi, count)
    w = gen.standard_exponential(count)
    # Chambers-Mallows-Stuck, symmetric case; exact for alpha = 2 as well
    x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
         * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return scale * x


def sample_stable_subordinator(rho: float, t: float, rng, size: int) -> np.ndarray:
    """``size`` stable-subordinator increments, Laplace transform exp(-t lam^rho).

    rho = 1 is the degenerate deterministic time change S_t = t.
    """
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if size < 0:
        raise DomainError(f"size must be >= 0, got {size}")
    if rho == 1.0:
        return np.full(size, float(t))
    scale = _time_scale(t, 1.0 / rho)
    gen = as_generator(rng)
    u = gen.uniform(0.0, np.pi, size)
    w = gen.standard_exponential(size)
    # Kanter's representation: S_1 = (A(U)/W)^((1-rho)/rho)
    a = (np.sin(rho * u) ** rho * np.sin((1.0 - rho) * u) ** (1.0 - rho)
         / np.sin(u)) ** (1.0 / (1.0 - rho))
    s1 = (a / w) ** ((1.0 - rho) / rho)
    return scale * s1


def sample_tempered_subordinator(rho: float, m: float, t: float, rng,
                                 size: int) -> np.ndarray:
    """``size`` increments with Laplace transform exp(-t ((lam+m^2)^rho - m^(2 rho))).

    Proposals are stable increments accepted with probability exp(-m^2 S);
    the horizon is split into k = ceil(t m^(2 rho) / 0.7) pieces so the
    per-piece acceptance rate stays above exp(-0.7).  More than
    ``MAX_STEP_WORK`` pieces are refused.
    """
    if not (m > 0 and m * m < math.inf):
        raise DomainError(f"tilt m must be positive with a finite square, got {m}")
    if not (0.0 < rho < 1.0):
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    if size < 0:
        raise DomainError(f"size must be >= 0, got {size}")
    pieces = t * m ** (2.0 * rho) / 0.7  # finite m^2 and rho < 1: no OverflowError
    if pieces > MAX_STEP_WORK:
        raise DomainError(f"t={t} with tilt m={m} needs {pieces:.3g} rejection pieces "
                          f"per increment; at most {MAX_STEP_WORK:g} are run")
    gen = as_generator(rng)
    k = max(1, math.ceil(pieces))
    tau = t / k
    m2 = m * m
    total = np.zeros(size)
    for _ in range(k):
        pending = np.arange(size)
        piece = np.empty(size)
        while pending.size:
            prop = sample_stable_subordinator(rho, tau, gen, size=pending.size)
            acc = gen.uniform(size=pending.size) < np.exp(-m2 * prop)
            piece[pending[acc]] = prop[acc]
            pending = pending[~acc]
        total += piece
    return total


def sample_subordinator(sub: SubordinatorSpec, t: float, rng, size: int) -> np.ndarray:
    """``size`` increments over time t of the subordinator ``sub``, by its
    family's sampler.  At rho = 1 the tilt cancels, (lam + m^2) - m^2 = lam,
    so either family is the identity time and the stable sampler draws
    nothing."""
    if sub.family is SubFamily.STABLE or sub.rho == 1.0:
        return sample_stable_subordinator(sub.rho, t, rng, size)
    return sample_tempered_subordinator(sub.rho, sub.m, t, rng, size)


def sample_subordinated_bm(sub_sample, d: int, rng) -> np.ndarray:
    """One row sqrt(2 S) Z, Z standard normal in R^d, per sample S of the 1-D ``sub_sample``.

    The factor 2 matches the catalog normalisation psi(xi) = f(|xi|^2): a
    subordinator increment S with E exp(-lam S) = exp(-t f(lam)) yields
    E exp(i xi . sqrt(2 S) Z) = exp(-t f(|xi|^2)).
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    s = np.asarray(sub_sample, dtype=float)
    if s.ndim != 1:
        raise ShapeError(f"subordinator samples must be a 1-D array, got shape {s.shape}")
    if not np.all(s >= 0):  # NaN too
        raise DomainError("subordinator samples must be nonnegative numbers")
    if not np.all(s <= sys.float_info.max / 2):  # 2 S stays finite
        raise DomainError(f"the Gaussian scale sqrt(2 S) overflows a float at S={s.max()}")
    return np.sqrt(2.0 * s)[:, None] * as_generator(rng).standard_normal((s.size, d))


# ----------------------------------------------------------------------
# jump decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationMeta:
    """Record of a small-jump Gaussian replacement."""

    epsilon: float
    sigma2: float      # int_{|y| < eps} y^2 nu(dy)
    intensity: float   # nu(|y| >= eps)

    def cf_bias_bound(self, xi, dt: float):
        """|empirical CF target - exp(-dt psi)| <= dt xi^4 eps^2 sigma2 / 24."""
        xi = np.asarray(xi, dtype=float)
        return dt * xi ** 4 * self.epsilon ** 2 * self.sigma2 / 24.0


@lru_cache(maxsize=256)
def default_epsilon(model: LevyModel, dt: float) -> float:
    """Truncation threshold: the smallest eps with sigma(eps) below the bias
    target that also keeps the expected jump count per step within budget."""
    rd = radial_density(model)
    target = DEFAULT_BIAS_COEFF * dt ** (1.0 / model.gradient_index)
    lo, hi = 1e-12, 1.0  # sample_jump_decomposition refuses eps > 1

    def bracket_root(gap):
        """Zero of a gap increasing in log eps; lo or hi if it has no sign change."""
        glo, ghi = gap(math.log(lo)), gap(math.log(hi))
        if glo >= 0:
            return lo
        if ghi <= 0:
            return hi
        from ._quadpack import brentq
        return math.exp(brentq(gap, math.log(lo), math.log(hi)))

    # sigma(eps) grows with eps; the jump intensity shrinks with eps, so its
    # gap is taken as budget minus intensity (b - a is exactly -(a - b))
    eps_sigma = bracket_root(
        lambda le: math.sqrt(rd.moment(2.0, 0.0, math.exp(le))) - target)
    eps_budget = bracket_root(
        lambda le: DEFAULT_JUMP_BUDGET / dt - rd.mass(math.exp(le), math.inf))
    return min(hi, max(eps_sigma, eps_budget))


@lru_cache(maxsize=256)
def _decomposition_stats(model: LevyModel, epsilon: float):
    rd = radial_density(model)
    return rd.moment(2.0, 0.0, epsilon), rd.mass(epsilon, math.inf)


def sample_jump_decomposition(model: LevyModel, epsilon: float, dt: float, rng,
                              size: int):
    """``size`` one-dimensional increments over dt: matched Gaussian for jumps
    below epsilon plus compound Poisson above.  Returns (values,
    TruncationMeta).  More than ``MAX_STEP_WORK`` expected jumps per
    increment are refused."""
    if model.dim != 1:
        raise UnsupportedModelError("jump decomposition is one-dimensional")
    if not (0.0 < epsilon <= 1.0):
        raise DomainError("epsilon must lie in (0, 1]")
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    if size < 0:
        raise DomainError(f"size must be >= 0, got {size}")
    rd = radial_density(model)
    sigma2, intensity = _decomposition_stats(model, epsilon)
    if dt * intensity > MAX_STEP_WORK:
        raise DomainError(f"dt={dt} asks for {dt * intensity:.3g} expected jumps per "
                          f"increment above epsilon={epsilon}; at most "
                          f"{MAX_STEP_WORK:g} are drawn")
    meta = TruncationMeta(epsilon=epsilon, sigma2=sigma2, intensity=intensity)

    gen = as_generator(rng)
    values = gen.standard_normal(size) * math.sqrt(dt * sigma2)
    if intensity > 0:
        counts = gen.poisson(dt * intensity, size)
        total = int(counts.sum())
        if total:
            radii = rd.sample_tail(epsilon, total, gen)
            # a fair sign per jump, negative where the draw is 0: every radius
            # is positive, so copysign sets the sign bit and nothing else
            for start in range(0, total, _DRAW_CHUNK):
                chunk = radii[start:start + _DRAW_CHUNK]
                np.copysign(chunk, gen.integers(0, 2, chunk.size) - 0.5, out=chunk)
            owner = np.repeat(np.arange(size), counts)
            values += np.bincount(owner, weights=radii, minlength=size)
    return values, meta


# ----------------------------------------------------------------------
# unified increment generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementBatch:
    """n i.i.d. increments of the driving process over a fixed step dt."""

    dt: float
    values: np.ndarray  # shape (n, d)
    model: LevyModel
    meta: Optional[TruncationMeta] = None
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ShapeError("values must be an (n, d) array")
        if v.shape[1] != self.model.dim:
            raise ShapeError(f"values have dimension {v.shape[1]}, model is {self.model.dim}-d")
        if not np.isfinite(v).all():
            raise ShapeError("increments contain non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def increments(model: LevyModel, T: float, n: int, rng) -> IncrementBatch:
    """Draw the n driving increments of L over [0, T] at step dt = T/n.

    Uses the exact family sampler where one exists; the radial pure-jump
    families fall back to the decomposition sampler with the threshold of
    :func:`default_epsilon`.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_ELEMENTS // model.dim:
        raise DomainError(f"n={n} increments in dim={model.dim} are more elements than "
                          f"an array can hold (at most {MAX_ELEMENTS})")
    if not 0 < T < math.inf:
        raise DomainError(f"T must be finite and > 0, got {T}")
    dt = T / n
    if dt == 0:
        raise DomainError(f"the step T / n underflows to 0 at T={T} and n={n}")
    seed, stream = (rng.seed, rng.stream_id) if isinstance(rng, RngStream) else (0, 0)
    gen = as_generator(rng)
    fam = model.family
    d = model.dim
    meta = None

    if fam is Family.BROWNIAN:
        if 2.0 * dt == math.inf:
            raise DomainError(f"the Gaussian scale sqrt(2 dt) overflows a float at dt={dt}")
        vals = gen.standard_normal((n, d)) * math.sqrt(2.0 * dt)
    elif fam is Family.ISOTROPIC_STABLE and d == 1:
        vals = sample_stable(model.alpha, _time_scale(dt, 1.0 / model.alpha), n, gen)[:, None]
    elif fam in (Family.ISOTROPIC_STABLE, Family.RELATIVISTIC_STABLE, Family.SUBORDINATED_BM):
        sub = model.sub or SubordinatorSpec(
            SubFamily.STABLE if fam is Family.ISOTROPIC_STABLE else SubFamily.TEMPERED_STABLE,
            model.alpha / 2.0, model.m or 0.0)
        vals = sample_subordinated_bm(sample_subordinator(sub, dt, gen, n), d, gen)
    elif fam in (Family.TEMPERED_STABLE, Family.TRUNCATED_STABLE, Family.LAYERED_STABLE):
        flat, meta = sample_jump_decomposition(model, default_epsilon(model, dt), dt, gen, n)
        vals = flat[:, None]
    else:
        raise UnsupportedModelError(f"no increment sampler for family {fam.value}")

    return IncrementBatch(dt=dt, values=vals, model=model, meta=meta,
                          seed=seed, stream_id=stream)


# ----------------------------------------------------------------------
# binary replay format
# ----------------------------------------------------------------------

_MAGIC = b"LVEM"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQQQd?ddd")


def model_hash(model: LevyModel) -> int:
    digest = hashlib.sha256(model.describe().encode()).digest()
    return int.from_bytes(digest[:8], "little")


def save_batch(batch: IncrementBatch, path) -> None:
    """Dump a batch for replay: fixed header + row-major little-endian floats."""
    meta = batch.meta
    header = _HEADER.pack(
        _MAGIC, _VERSION, model_hash(batch.model), batch.seed, batch.stream_id,
        batch.n, batch.model.dim, batch.dt, meta is not None,
        meta.epsilon if meta else 0.0,
        meta.sigma2 if meta else 0.0,
        meta.intensity if meta else 0.0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(batch.values, dtype="<f8").tobytes())


def load_batch(path, model: LevyModel) -> IncrementBatch:
    """Read a dump written by :func:`save_batch`; any other file is refused."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ShapeError(f"increment dump is shorter than its {_HEADER.size}-byte header")
    magic, version, mhash, seed, stream, n, d, dt, has_meta, eps, sig2, inten = \
        _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _VERSION:
        raise ShapeError("not a levyem increment dump")
    if mhash != model_hash(model):
        raise ShapeError("increment dump was written for a different model")
    if len(raw) != _HEADER.size + 8 * n * d:
        raise ShapeError(f"increment dump holds {len(raw) - _HEADER.size} bytes of values, "
                         f"not the {8 * n * d} its header declares for {n} x {d} floats")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, d)
    meta = TruncationMeta(eps, sig2, inten) if has_meta else None
    return IncrementBatch(dt=dt, values=body.astype(float), model=model, meta=meta,
                          seed=seed, stream_id=stream)
