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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

# 4-point Gauss-Legendre on [0, 1], used by the time-integrated drift variant
_GL4_NODES = 0.5 * (1.0 + np.array([-0.8611363115940526, -0.3399810435848563,
                                    0.3399810435848563, 0.8611363115940526]))
_GL4_WEIGHTS = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                               0.6521451548625461, 0.3478548451374538])

VARIANTS = ("frozen", "timeint")


@dataclass(frozen=True)
class DriftSpec:
    """Drift b(t, x) with declared Hoelder exponents and sup bound.

    ``fn`` must act elementwise on an array x of any shape (componentwise
    for d > 1): the ``timeint`` scheme stacks the fine path and every coarse
    level into one array of shape (levels+1, paths, d).
    The declared (beta, eta, bound) are the catalog author's responsibility;
    :func:`drift_diagnostics` provides necessary-condition spot checks.
    """

    fn: Callable
    beta: float
    eta: float
    bound: float
    name: str = "custom"

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0) or not (0.0 < self.eta <= 1.0):
            raise DomainError("beta and eta must lie in (0, 1]")
        if self.bound <= 0:
            raise DomainError("bound must be positive")

    def __call__(self, t, x):
        return self.fn(t, x)


def drift_zero() -> DriftSpec:
    return DriftSpec(lambda t, x: np.zeros_like(x), beta=1.0, eta=1.0, bound=1e-300,
                     name="zero")


def drift_const(c: float) -> DriftSpec:
    return DriftSpec(lambda t, x: np.full_like(x, c), beta=1.0, eta=1.0,
                     bound=max(abs(c), 1e-300), name="const")


def drift_cos() -> DriftSpec:
    return DriftSpec(lambda t, x: np.cos(x), beta=1.0, eta=1.0, bound=1.0, name="cos")


def drift_rough(beta: float) -> DriftSpec:
    """b(x) = sgn(sin x) |sin x|^beta; beta-Hoelder in space, time-free."""
    if not (0.0 < beta < 1.0):
        raise DomainError("rough drift needs beta in (0, 1)")

    def fn(t, x):
        s = np.sin(x)
        return np.sign(s) * np.abs(s) ** beta

    return DriftSpec(fn, beta=beta, eta=1.0, bound=1.0, name="rough_sin")


def drift_cos_time() -> DriftSpec:
    """b(t, x) = cos(x + t): Lipschitz in both arguments."""
    return DriftSpec(lambda t, x: np.cos(x + t), beta=1.0, eta=1.0, bound=1.0,
                     name="cos_time")


DRIFT_CATALOG = {
    "zero": lambda **kw: drift_zero(),
    "const": lambda **kw: drift_const(kw.get("c", 1.0)),
    "cos": lambda **kw: drift_cos(),
    "rough_sin": lambda **kw: drift_rough(kw.get("beta", 0.5)),
    "cos_time": lambda **kw: drift_cos_time(),
}


def drift_diagnostics(drift: DriftSpec, rng, n_pairs: int = 10_000,
                      box: float = 10.0, t_max: float = 1.0) -> dict:
    """Necessary-condition spot checks of (bound, beta, eta) on random pairs."""
    gen = rng.generator() if hasattr(rng, "generator") else rng
    t = gen.uniform(0.0, t_max, n_pairs)
    x = gen.uniform(-box, box, n_pairs)
    dx = gen.uniform(-1.0, 1.0, n_pairs)
    dt = gen.uniform(0.0, 1.0, n_pairs)
    bx, bxdx = drift(t, x), drift(t, x + dx)
    btdt = drift(t + dt, x)
    eps = 1e-12
    return {
        "sup_abs": float(np.max(np.abs(bx))),
        "space_quotient": float(np.max(np.abs(bxdx - bx) / (np.abs(dx) + eps) ** drift.beta)),
        "time_quotient": float(np.max(np.abs(btdt - bx) / (dt + eps) ** drift.eta)),
    }


def as_state(x0, d: int) -> np.ndarray:
    """x0 as a finite vector of length d; a single value fills every coordinate."""
    x = np.asarray(x0, dtype=float)
    x = np.full(d, x.item()) if x.size == 1 else x
    if x.shape != (d,):
        raise ShapeError(f"x0 must be one value or {d} values, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"x0 must be finite, got {x.tolist()}")
    return x


def _step_drift(drift: DriftSpec, t_lo: float, dt: float, x, variant: str):
    """Drift contribution of one step given the frozen state argument x."""
    if variant == "frozen":
        return drift(t_lo, x) * dt
    if variant == "timeint":
        acc = 0.0
        for w, c in zip(_GL4_WEIGHTS, _GL4_NODES):
            acc = acc + w * drift(t_lo + c * dt, x)
        return acc * dt
    raise DomainError(f"unknown scheme variant {variant!r}")


def euler_ladder(drift: DriftSpec, x0, T: float, noise: np.ndarray, factors=(),
                 variant: str = "frozen"):
    """The fine scheme and the coarse scheme of every ladder level in one pass.

    ``noise`` holds the fine increments, shape (paths, n, d).  The level with
    factor f runs the n // f step scheme on the fine grid under the same
    increments: its drift argument is held at its last coarse node while
    noise is added per fine increment.  With ``frozen`` a level evaluates its
    drift once per coarse step, at its own grid time; with ``timeint`` time
    runs over each fine substep and all levels share one drift call per
    Gauss node.  Non-finite states are not checked; they propagate.

    Returns the fine states (paths, n+1, d) and, per level, the sup over the
    fine grid of its distance to the fine path (levels, paths).
    """
    paths, n, d = noise.shape
    if any(f < 1 or n % f for f in factors):
        raise ShapeError(f"ladder factors {tuple(factors)} must divide {n} steps")
    if not T > 0 or n < 1:
        raise DomainError(f"need T > 0 and n >= 1, got T={T} and n={n}")
    dt = T / n
    times = T * np.arange(n + 1) / n
    level_times = [T * np.arange(n // f + 1) / (n // f) for f in factors]
    x = np.tile(as_state(x0, d), (len(factors) + 1, paths, 1))
    states = np.empty((paths, n + 1, d))
    states[:, 0] = x[0]
    sup2 = np.zeros((len(factors), paths))
    held = x.copy()  # per level: drift term (frozen) or drift argument (timeint)
    for i in range(n):
        new = [k for k, f in enumerate(factors, 1) if i % f == 0]
        if variant == "frozen":
            held[0] = _step_drift(drift, times[i], dt, x[0], variant)
            for k in new:
                j = i // factors[k - 1]
                held[k] = _step_drift(drift, level_times[k - 1][j], dt, x[k], variant)
            term = held
        else:
            held[0] = x[0]
            held[new] = x[new]
            term = _step_drift(drift, times[i], dt, held, variant)
        x = x + term + noise[:, i]
        states[:, i + 1] = x[0]
        gap = x[0] - x[1:]
        np.maximum(sup2, np.add.reduce(gap * gap, axis=-1), out=sup2)
    # the sup of squared distances: sqrt is monotone, so this equals the sup
    # of np.linalg.norm(gap, axis=-1) bit for bit
    return states, np.sqrt(sup2)
