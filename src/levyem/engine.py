"""Euler-Maruyama scheme on a grid, and the common-noise fine/coarse coupling.

The default scheme freezes both drift arguments at the left grid point,
X_{i+1} = X_i + b(t_i, X_i) dt + dL_i.  A ``timeint`` variant instead
integrates b(s, X_i) exactly in s over each step (Gauss-Legendre in time)
for drifts with genuine time dependence; the two coincide for
time-independent drift.

Strong discretisation error is measured by running the coarse scheme on the
fine grid under the same increments: within each coarse step the drift
argument is held at the last coarse node while noise is added per fine
increment, so the gap to the fine path isolates the drift-freezing error
and is exactly zero for constant drift.  :func:`euler_ladder` is the one
way to simulate: it advances a batch of fine paths and every coarse level
together, and the Monte Carlo harness calls it once per block of paths.
It keeps only the current state of each path and each level's running sup
gap, never a path table, so its memory does not grow with the step count.
States are updated in place, and the squared gaps of a few steps at a time
are folded into the sup with one max-reduction, which is exact.  The
variant's drift step is bound once per call, so a step makes one Python
call per drift evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

# 4-point Gauss-Legendre on [0, 1], used by the time-integrated drift variant
_GL4_NODES = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                                    0.3399810435848563, 0.8611363115940526]))
_GL4_WEIGHTS = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                               0.6521451548625461, 0.3478548451374538])

VARIANTS = ("frozen", "timeint")

# steps whose squared gaps are buffered before they are folded into the sup
_GAP_ROWS = 16


@dataclass(frozen=True)
class DriftSpec:
    """Drift b(t, x) with declared Hoelder exponents in space and time.

    ``fn`` must act elementwise on an array x of any shape (componentwise
    for d > 1): the ``timeint`` scheme stacks the fine path and every coarse
    level into one array of shape (levels+1, paths, d).
    The declared (beta, eta) are the catalog author's responsibility; the
    library does not test them against ``fn``.
    """

    fn: Callable
    beta: float
    eta: float
    name: str = field(default="custom", kw_only=True)

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0) or not (0.0 < self.eta <= 1.0):
            raise DomainError("beta and eta must lie in (0, 1]")

    def __call__(self, t, x):
        return self.fn(t, x)


def drift_zero() -> DriftSpec:
    return DriftSpec(lambda t, x: np.zeros_like(x), beta=1.0, eta=1.0, name="zero")


def drift_const(c: float = 1.0) -> DriftSpec:
    return DriftSpec(lambda t, x: np.full_like(x, c), beta=1.0, eta=1.0, name="const")


def drift_cos() -> DriftSpec:
    return DriftSpec(lambda t, x: np.cos(x), beta=1.0, eta=1.0, name="cos")


def drift_rough(beta: float = 0.5) -> DriftSpec:
    """b(x) = sgn(sin x) |sin x|^beta; beta-Hoelder in space, time-free."""
    if not (0.0 < beta < 1.0):
        raise DomainError("rough drift needs beta in (0, 1)")

    def fn(t, x):
        s = np.sin(x)
        return np.sign(s) * np.abs(s) ** beta

    return DriftSpec(fn, beta=beta, eta=1.0, name="rough_sin")


def drift_cos_time() -> DriftSpec:
    """b(t, x) = cos(x + t): Lipschitz in both arguments."""
    return DriftSpec(lambda t, x: np.cos(x + t), beta=1.0, eta=1.0, name="cos_time")


DRIFT_CATALOG = {"zero": drift_zero, "const": drift_const, "cos": drift_cos,
                 "rough_sin": drift_rough, "cos_time": drift_cos_time}


def as_state(x0, d: int) -> np.ndarray:
    """x0 as a finite vector of length d; a single value fills every coordinate."""
    x = np.asarray(x0, dtype=float)
    x = np.full(d, x.item()) if x.size == 1 else x
    if x.shape != (d,):
        raise ShapeError(f"x0 must be one value or {d} values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"x0 must be finite, got {x.tolist()}")
    return x


def _step_drift(drift: DriftSpec, dt: float, variant: str):
    """The drift contribution of one step of length dt, as a function
    ``step(t_lo, x, out=None)`` of the step's left time and the frozen state
    argument x; it writes into ``out`` when that is given."""
    fn = drift.fn
    if variant == "frozen":
        def step(t_lo, x, out=None):
            return np.multiply(fn(t_lo, x), dt, out=out)
    elif variant == "timeint":
        nodes = [(w, c * dt) for w, c in zip(_GL4_WEIGHTS, _GL4_NODES)]

        def step(t_lo, x, out=None):
            acc = 0.0
            for w, offset in nodes:
                acc = acc + w * fn(t_lo + offset, x)
            return np.multiply(acc, dt, out=out)
    else:
        raise DomainError(f"unknown scheme variant {variant!r}")
    return step


def euler_ladder(drift: DriftSpec, x0, T: float, noise: np.ndarray, factors=(),
                 variant: str = "frozen"):
    """The fine scheme and the coarse scheme of every ladder level in one pass.

    ``noise`` holds the fine increments, shape (paths, n, d); as a transposed
    view of a time-major (n, paths, d) buffer it gives one contiguous row per
    step.  The level with factor f runs the n // f step scheme on the fine
    grid under the same increments: its drift argument is held at its last
    coarse node while noise is added per fine increment.  With ``frozen`` a level evaluates its
    drift once per coarse step, at its own grid time; with ``timeint`` time
    runs over each fine substep and all levels share one drift call per
    Gauss node.  Non-finite states are not checked; they propagate.

    Returns the terminal fine state (paths, d) and, per level, the sup over
    the fine grid of its distance to the fine path (levels, paths).  The
    fine state at step k is the terminal state of the run on the first k
    increments over [0, T k / n].
    """
    if noise.ndim != 3:
        raise ShapeError(f"noise must be a (paths, n, d) array, got shape {noise.shape}")
    paths, n, d = noise.shape
    if any(f < 1 or n % f for f in factors):
        raise ShapeError(f"ladder factors {tuple(factors)} must divide {n} steps")
    if not 0 < T < math.inf or n < 1:
        raise DomainError(f"need finite T > 0 and n >= 1, got T={T} and n={n}")
    dt = T / n
    step = _step_drift(drift, dt, variant)
    frozen = variant == "frozen"
    times = T * np.arange(n + 1) / n
    level_times = [T * np.arange(n // f + 1) / (n // f) for f in factors]
    # the levels that start a coarse step at step i are schedule[i % period],
    # one shared list per distinct set (a list: an empty tuple as an index
    # selects every level); the keys are tuples of lists, because tuple() of
    # a generator allocates large and shrinks, and CPython's free lists then
    # keep thousands of the shrunk tuples
    period = math.lcm(*factors)
    starts = {}
    schedule = []
    for i in range(period):
        levels = [k for k, f in enumerate(factors, 1) if i % f == 0]
        schedule.append(starts.setdefault(tuple(levels), levels))
    x = np.tile(as_state(x0, d), (len(factors) + 1, paths, 1))
    steps = noise.transpose(1, 0, 2)  # one (paths, d) row per step
    if d == 1:
        # the same elements without the unit coordinate axis, which every
        # ufunc below would otherwise broadcast over; in d = 1 the squared
        # gap is its own sum over coordinates, bit for bit
        x, steps = x[..., 0], steps[..., 0]
    fine, coarse = x[0], x[1:]  # views: x is only ever updated in place
    held = x.copy()  # per level: drift term (frozen) or drift argument (timeint)
    xs, terms = list(x), list(held)  # per-level views, indexed once
    sup2 = np.zeros((len(factors), paths))
    gap = None if d == 1 else np.empty((len(factors), paths, d))
    gap2 = np.empty((_GAP_ROWS, len(factors), paths))  # squared gaps, one row per step
    gap_rows = list(gap2)
    for i, (t, dL) in enumerate(zip(times, steps)):
        new = schedule[i % period]
        if frozen:
            step(t, fine, terms[0])
            for k in new:
                step(level_times[k - 1][i // factors[k - 1]], xs[k], terms[k])
            term = held
        else:
            held[0] = fine
            held[new] = x[new]
            term = step(t, held)
        np.add(x, term, out=x)
        np.add(x, dL, out=x)
        row = i % _GAP_ROWS
        sq = gap_rows[row] if d == 1 else gap
        np.subtract(fine, coarse, out=sq)
        np.multiply(sq, sq, out=sq)
        if d > 1:
            np.add.reduce(sq, axis=-1, out=gap_rows[row])
        if row == _GAP_ROWS - 1 or i == n - 1:
            # max is exact and carries NaN, so folding the rows in blocks
            # gives the per-step running max bit for bit
            np.maximum(sup2, np.maximum.reduce(gap2[:row + 1], axis=0), out=sup2)
    # the sup of squared distances: sqrt is monotone, so this equals the sup
    # of np.linalg.norm(gap, axis=-1) bit for bit
    return fine.reshape(paths, d), np.sqrt(sup2)
