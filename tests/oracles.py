"""Independent reference computations that only the tests use.

Each one checks a library result by a route the library does not take:
dyadic-shell quadrature for the closed-form moment indices, the radial
jump density evaluated pointwise from its pieces, random-pair
spot checks for a drift's declared regularity, a node-clustered resolvent
integral for the Picard solve, and a one-row Hoelder quotient for the
certificate's seminorms.  The subordination inverse-moment diagnostic behind
acceptance criterion A10 lives here too: no command runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from levyem.engine import DriftSpec
from levyem.errors import DensityError, DomainError, ShapeError
from levyem.fitting import fit_powerlaw
from levyem.models import LevyModel, RadialDensity, SubordinatorSpec
from levyem.rng import RngStream
from levyem.samplers import sample_subordinator
from levyem.spectral import (SpaceGrid, _dyadic_peaks, _holder_quotient, _phi1,
                             _phi2, _psi_on_grid)

# ----------------------------------------------------------------------
# numerical moment verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    finite: bool
    value: float  # nan when divergent
    shells: int


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _shell_integral(q, gamma, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    r = mid + half * _GL_NODES
    vals = np.asarray(q(r), dtype=float)
    if np.any(vals < 0):
        raise DensityError("radial density is negative on the integration range")
    return half * float(np.dot(_GL_WEIGHTS, r ** gamma * vals))


def verify_levy_moment(q, gamma: float, region: str,
                       max_shells: int = 160) -> MomentCheck:
    """Decide whether int r^gamma Q(r) dr converges on (0,1) or (1,inf).

    Dyadic shells are integrated with fixed Gauss-Legendre rules; the sums
    are declared divergent when eight consecutive shells fail to decay
    geometrically, and otherwise the geometric tail is extrapolated.
    """
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if region not in ("inner", "outer"):
        raise DomainError("region must be 'inner' or 'outer'")
    shells = []
    for k in range(max_shells):
        if region == "inner":
            a, b = 2.0 ** (-k - 1), 2.0 ** (-k)
        else:
            a, b = 2.0 ** k, 2.0 ** (k + 1)
        shells.append(_shell_integral(q, gamma, a, b))
        total = sum(shells)
        s = shells[-1]
        if total > 0 and s < 1e-13 * total:
            return MomentCheck(True, total, len(shells))
        if len(shells) >= 9:
            recent = shells[-9:]
            if all(r > 0 for r in recent) and all(
                    recent[i + 1] >= 0.999 * recent[i] for i in range(8)):
                return MomentCheck(False, math.nan, len(shells))
    # extrapolate the geometric tail from the trailing ratio
    total = sum(shells)
    tail = 0.0
    if shells[-1] > 0 and shells[-2] > 0:
        ratio = shells[-1] / shells[-2]
        if ratio >= 0.999:
            return MomentCheck(False, math.nan, len(shells))
        tail = shells[-1] * ratio / (1.0 - ratio)
    return MomentCheck(True, total + tail, len(shells))


def radial_q(density: RadialDensity, r):
    """Q(r), the sum over the pieces c r^(-1-s) e^(-m r) on (lo, hi] of
    ``density``; a float for a scalar r, an array of r's shape otherwise."""
    r = np.asarray(r, dtype=float)
    flat = np.atleast_1d(r)
    out = np.zeros_like(flat)
    for p in density.pieces:
        inside = (flat > p.lo) & (flat <= p.hi)
        val = p.c * flat[inside] ** (-1.0 - p.s)
        if p.m > 0:
            val = val * np.exp(-p.m * flat[inside])
        out[inside] += val
    return float(out[0]) if r.ndim == 0 else out


# ----------------------------------------------------------------------
# drift regularity
# ----------------------------------------------------------------------

def drift_diagnostics(drift: DriftSpec, rng, n_pairs: int = 10_000,
                      box: float = 10.0, t_max: float = 1.0) -> dict:
    """Necessary-condition spot checks of (sup, beta, eta) on random pairs."""
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


# ----------------------------------------------------------------------
# resolvent integral and Hoelder seminorm
# ----------------------------------------------------------------------

def _exp_segment(a: float, delta: float, psi: np.ndarray,
                 h_lo: np.ndarray, h_hi: np.ndarray) -> np.ndarray:
    """int_a^{a+delta} e^{-tau psi} h(tau) dtau with h linear between its endpoints."""
    z = delta * psi
    return np.exp(-a * psi) * delta * (h_lo * _phi1(z) + (h_hi - h_lo) * _phi2(z))


def resolvent_source(g, t: float, model: LevyModel, grid: SpaceGrid,
                     n_nodes: int = 256, power: float = 2.0) -> np.ndarray:
    """u(t, x) = int_0^t E g(s, x + L_{t-s}) ds.

    The quadrature nodes s_k = t (1 - (k/K)^power) cluster at s = t where the
    gradient of the semigroup is singular; within each interval the semigroup
    factor is integrated exactly per Fourier mode against a source linear in s.
    ``g`` is either a grid array (time constant) or a callable s -> grid array.
    """
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        probe = g if isinstance(g, np.ndarray) else g(0.0)
        return np.zeros_like(np.asarray(probe, dtype=float))
    psi = _psi_on_grid(model, grid)
    const = isinstance(g, np.ndarray)

    def ghat(s: float) -> np.ndarray:
        vals = g if const else np.asarray(g(s), dtype=float)
        if vals.shape != (grid.n_points,):
            raise ShapeError("source must be sampled on the grid")
        return np.fft.fft(vals)

    k = np.arange(n_nodes + 1)
    taus = t * (k / n_nodes) ** power  # tau = t - s, increasing from 0 to t
    uhat = np.zeros(grid.n_points, dtype=complex)
    if const:
        h = ghat(t)
        for i in range(n_nodes):
            uhat += _exp_segment(taus[i], taus[i + 1] - taus[i], psi, h, h)
    else:
        h_prev = ghat(t - taus[0])
        for i in range(n_nodes):
            h_next = ghat(t - taus[i + 1])
            uhat += _exp_segment(taus[i], taus[i + 1] - taus[i], psi, h_prev, h_next)
            h_prev = h_next
    return np.fft.ifft(uhat).real


def holder_seminorm(values: np.ndarray, theta: float, spacing: float,
                    max_sep: float = 2.0) -> float:
    """Max Hoelder quotient over node pairs at dyadic separations <= max_sep.

    A grid seminorm is a lower bound of the continuum one; certificates built
    from it are measured-on-grid statements.
    """
    values = np.asarray(values, dtype=float).reshape(1, -1)
    return _holder_quotient(_dyadic_peaks(values, spacing, max_sep), theta)


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
