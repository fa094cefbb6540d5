"""One-dimensional Fourier-side toolkit.

Transition densities are obtained by discrete inversion of exp(-t psi) on a
uniform dual grid; the generator acts as the Fourier multiplier -psi, so
semigroup application, spectral derivatives and the backward Kolmogorov
solve all live on the same grid.  Time integration against the semigroup is
done with exponential quadrature: within each interval the semigroup factor
is integrated exactly per mode and only the source is interpolated linearly,
which keeps the scheme robust against the gradient singularity of P_t at
t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import special

from .engine import DriftSpec
from .errors import DomainError, ResolutionError, ShapeError, StiffnessError
from .models import (Family, LevyModel, char_exponent_radial, kappa_exponent,
                     stable_constant)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform periodic grid on [-R, R) with a power-of-two node count."""

    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)):
            raise DomainError("n_points must be a power of two >= 8")
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.n_points)

    @property
    def dual(self) -> np.ndarray:
        """Angular frequencies in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.h)

    @property
    def xi_max(self) -> float:
        return np.pi / self.h


@lru_cache(maxsize=8)
def _psi_on_grid(model: LevyModel, grid: SpaceGrid) -> np.ndarray:
    """psi on the dual grid in FFT order; cached, so callers must not mutate it."""
    xi = grid.dual
    half = np.abs(xi[:grid.n_points // 2 + 1])
    prof = char_exponent_radial(model, half)
    psi = np.empty_like(xi)
    psi[:grid.n_points // 2 + 1] = prof
    psi[grid.n_points // 2 + 1:] = prof[1:grid.n_points // 2][::-1]
    return psi


def _invert(grid: SpaceGrid, fhat: np.ndarray) -> np.ndarray:
    """Continuous inverse transform (1/2pi) int e^{-i x xi} fhat(xi) dxi on the nodes."""
    dxi = np.pi / grid.half_width
    phase = np.exp(1j * grid.half_width * grid.dual)
    return (dxi / (2.0 * np.pi)) * np.fft.fft(fhat * phase).real


# ----------------------------------------------------------------------
# transition densities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DensityTable:
    model: LevyModel
    t: float
    grid: SpaceGrid
    values: np.ndarray
    deriv1: np.ndarray
    deriv2: np.ndarray
    mass: float
    tail_estimate: float

    def to_csv(self, path, max_rows: Optional[int] = None) -> None:
        stride = 1 if max_rows is None else max(1, self.grid.n_points // max_rows)
        data = np.column_stack([self.grid.nodes, self.values, self.deriv1,
                                self.deriv2])[::stride]
        np.savetxt(path, data, delimiter=",", comments="", newline="\n",
                   header="x,value,derivative,second_derivative")


def tail_mass_estimate(model: LevyModel, t: float, R: float) -> float:
    """Analytic upper estimate of the density mass outside [-R, R]."""
    fam = model.family
    if fam is Family.BROWNIAN or (fam is Family.ISOTROPIC_STABLE and model.alpha == 2.0):
        sd = math.sqrt(2.0 * t)
        return float(special.erfc(R / (sd * math.sqrt(2.0))))
    if fam is Family.ISOTROPIC_STABLE:
        a = model.alpha
        return 2.0 * t * stable_constant(a) * R ** (-a) / a
    if fam is Family.SUBORDINATED_BM:
        from .models import SubFamily
        if model.sub.family is SubFamily.STABLE:
            a = 2.0 * model.sub.rho
            return 2.0 * t * stable_constant(a) * R ** (-a) / a
        m = model.sub.m
        return 4.0 * t * math.exp(-m * R) if m > 0 else 1.0
    if fam in (Family.RELATIVISTIC_STABLE, Family.TEMPERED_STABLE, Family.LAMPERTI_STABLE):
        return 4.0 * t * math.exp(-model.m * R)
    if fam is Family.TRUNCATED_STABLE:
        # all jumps bounded by 1: superexponential tails
        return 2.0 * math.exp(-0.5 * R * math.log1p(R / max(t, 1e-6)))
    if fam is Family.LAYERED_STABLE:
        lam = model.lambda_tail
        return 2.0 * t * R ** (-lam) / lam
    return 1.0


def suggest_grid(model: LevyModel, t_min: float, t_max: float,
                 tail_target: float = 1e-8, deriv_order: int = 2,
                 max_points: int = 2 ** 21) -> SpaceGrid:
    """Pick (R, N) so exp(-t_min psi) decays below 1e-16 at the Nyquist
    frequency (with xi^deriv_order headroom) and the density tail outside
    [-R, R] is estimated below tail_target; N is capped at max_points."""
    xi = 4.0
    while True:
        decay = t_min * char_exponent_radial(model, xi) - deriv_order * math.log(xi)
        if decay >= 38.0:
            break
        xi *= 1.3
        if xi > 1e9:
            raise ResolutionError("characteristic exponent grows too slowly to invert")
    R = 8.0
    while tail_mass_estimate(model, t_max, R) > tail_target and R < 1e9:
        R *= 1.5
    n_req = 2.0 * R * xi / math.pi * 1.05
    n = 2 ** max(8, math.ceil(math.log2(n_req)))
    if n > max_points:
        n = max_points
        R = n * math.pi / (2.0 * xi) / 1.05
    return SpaceGrid(half_width=R, n_points=n)


def density_fft(model: LevyModel, t: float, grid: SpaceGrid) -> DensityTable:
    """Invert exp(-t psi) on the grid; values in (-1e-10, 0) are clipped to 0."""
    if t <= 0:
        raise DomainError("t must be positive")
    psi = _psi_on_grid(model, grid)
    phat = np.exp(-t * psi)
    if phat[grid.n_points // 2] > 1e-12:
        raise ResolutionError(
            "exp(-t psi) has not decayed at the Nyquist frequency; enlarge n_points "
            "or shrink half_width")
    vals = _invert(grid, phat.astype(complex))
    low = float(vals.min())
    if low < -1e-10:
        raise ResolutionError(
            f"density has ringing below tolerance (min {low:.3e}); increase "
            "half_width or n_points")
    vals = np.where(vals < 0.0, 0.0, vals)
    mass = float(np.trapezoid(vals, dx=grid.h))
    if abs(mass - 1.0) > 1e-6:
        raise ResolutionError(
            f"density mass {mass} deviates from 1; increase half_width or n_points")
    d1 = _invert(grid, (-1j * grid.dual) * phat)
    d2 = _invert(grid, (-(grid.dual ** 2)) * phat.astype(complex))
    return DensityTable(model=model, t=t, grid=grid, values=vals, deriv1=d1,
                        deriv2=d2, mass=mass,
                        tail_estimate=tail_mass_estimate(model, t, grid.half_width))


def grad_l1_norm(table: DensityTable) -> float:
    """int |p_t'(x)| dx by the trapezoid rule on the table."""
    return float(np.trapezoid(np.abs(table.deriv1), dx=table.grid.h))


def second_l1_norm(table: DensityTable) -> float:
    return float(np.trapezoid(np.abs(table.deriv2), dx=table.grid.h))


@dataclass(frozen=True)
class GradientScaling:
    t_values: tuple
    grad_norms: tuple
    second_norms_2t: tuple   # ||p''_{2t}||_L1 per t
    slope: float
    half_width: float
    propagation_ok: bool     # ||p''_{2t}|| <= ||p'_t||^2 (1 + 1e-3) on every t


def gradient_scaling_exponent(model: LevyModel, t_list,
                              grid: Optional[SpaceGrid] = None) -> GradientScaling:
    """Fitted slope of log ||p_t'||_L1 against log t, plus the second-derivative
    propagation check at doubled times."""
    t_list = tuple(sorted(float(t) for t in t_list))
    if len(t_list) < 4 or t_list[0] <= 0:
        raise DomainError("need at least 4 positive t values")
    if grid is None:
        # |p'| and |p''| have integrable tails far lighter than p itself, so a
        # much smaller box suffices here than for unit-mass density work
        grid = suggest_grid(model, t_list[0], 2.0 * t_list[-1],
                            tail_target=3e-6, max_points=2 ** 18)
    grads, seconds = [], []
    for t in t_list:
        grads.append(grad_l1_norm(density_fft(model, t, grid)))
        seconds.append(second_l1_norm(density_fft(model, 2.0 * t, grid)))
    from .fitting import fit_powerlaw
    fit = fit_powerlaw(np.asarray(t_list), np.asarray(grads))
    prop = all(s2 <= g * g * (1.0 + 1e-3) for s2, g in zip(seconds, grads))
    return GradientScaling(t_values=t_list, grad_norms=tuple(grads),
                           second_norms_2t=tuple(seconds), slope=fit.exponent,
                           half_width=fit.half_width, propagation_ok=prop)


# ----------------------------------------------------------------------
# semigroup and time quadrature
# ----------------------------------------------------------------------

def semigroup_apply(g: np.ndarray, t: float, model: LevyModel,
                    grid: SpaceGrid) -> np.ndarray:
    """(P_t g)(x) = E g(x + L_t) by Fourier multiplication with exp(-t psi)."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_points,):
        raise ShapeError("g must be sampled on the grid")
    psi = _psi_on_grid(model, grid)
    return np.fft.ifft(np.fft.fft(g) * np.exp(-t * psi)).real


def _phi1(z: np.ndarray) -> np.ndarray:
    """(1 - e^-z)/z, stable near 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1e-5
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = -np.expm1(-zb) / zb
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(1 - (1 + z) e^-z)/z^2, stable near 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1e-4
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 0.5 - zs / 3.0 + zs * zs / 8.0
    zb = z[~small]
    out[~small] = (1.0 - (1.0 + zb) * np.exp(-zb)) / (zb * zb)
    return out


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


def spectral_gradient(values: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    return np.fft.ifft(1j * grid.dual * np.fft.fft(values)).real


def apply_generator(values: np.ndarray, model: LevyModel, grid: SpaceGrid) -> np.ndarray:
    """A u = inverse transform of -psi * u-hat."""
    psi = _psi_on_grid(model, grid)
    return np.fft.ifft(-psi * np.fft.fft(values)).real


def holder_seminorm(values: np.ndarray, theta: float, spacing: float,
                    max_sep: float = 2.0) -> float:
    """Max Hoelder quotient over node pairs at dyadic separations <= max_sep.

    A grid seminorm is a lower bound of the continuum one; certificates built
    from it are measured-on-grid statements.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError("theta must lie in (0, 1]")
    values = np.asarray(values, dtype=float)
    best = 0.0
    step = 1
    while step * spacing <= max_sep and step < values.size:
        sep = step * spacing
        diff = np.abs(values[step:] - values[:-step])
        q = float(diff.max()) / sep ** theta
        if q > best:
            best = q
        step *= 2
    return best


# ----------------------------------------------------------------------
# backward Kolmogorov equation by fixed-point iteration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PicardSolution:
    model: LevyModel
    grid: SpaceGrid
    horizon: float
    halvings: int
    times: np.ndarray
    u: np.ndarray        # (n_time + 1, N)
    grad_u: np.ndarray   # (n_time + 1, N)
    diffs: tuple         # sup-norm successive differences, noise-level tail excluded
    converged: bool
    certified: bool
    kappa: float
    certificate: dict = field(default_factory=dict)

    @property
    def ratios(self) -> tuple:
        return tuple(b / a for a, b in zip(self.diffs, self.diffs[1:]) if a > 0)


def _source_table(g, times: np.ndarray, grid: SpaceGrid) -> np.ndarray:
    if isinstance(g, np.ndarray):
        if g.shape != (grid.n_points,):
            raise ShapeError("source must be sampled on the grid")
        return np.broadcast_to(g, (times.size, grid.n_points)).copy()
    return np.stack([np.asarray(g(float(t)), dtype=float) for t in times])


def picard_solve(drift: DriftSpec, g, T: float, model: LevyModel, grid: SpaceGrid,
                 n_time: int = 128, max_iter: int = 60, tol: float = 1e-8,
                 max_halvings: int = 5, target_ratio: float = 0.95,
                 force_unbalanced: bool = False) -> PicardSolution:
    """Solve d_t u + A u + b . grad u = -g on [0, T] with u(T, .) = 0.

    Iterates u <- integral of P_{s-t} [b grad u + g] with the semigroup factor
    integrated exactly per mode over each uniform time interval (the source is
    interpolated linearly).  When the measured contraction factor exceeds
    ``target_ratio`` the horizon is halved, up to ``max_halvings`` times.
    """
    if T <= 0:
        raise DomainError("T must be positive")
    kappa = kappa_exponent(model.gradient_index, model.moments.gamma0, drift.beta)
    if kappa >= 1.0 and not force_unbalanced:
        raise DomainError(
            f"singularity exponent kappa={kappa:.4f} >= 1: the drift/noise pair "
            "violates the balance condition (pass force_unbalanced=True to attempt)")
    psi = _psi_on_grid(model, grid)
    nodes = grid.nodes

    horizon = float(T)
    halvings = 0
    while True:
        times = horizon * np.arange(n_time + 1) / n_time
        delta = horizon / n_time
        g_tab = _source_table(g, times, grid)
        b_tab = np.stack([np.asarray(drift(float(t), nodes), dtype=float) for t in times])
        g_norm = float(np.max(np.abs(g_tab)))
        if g_norm == 0.0:
            u = np.zeros((n_time + 1, grid.n_points))
            return _finish(model, grid, horizon, halvings, times, u, (), True,
                           not force_unbalanced and kappa < 1.0, kappa, drift, g_tab)

        z = delta * psi
        decay = np.exp(-z)
        w_lo = delta * _phi1(z)
        w_hi_minus_lo = delta * _phi2(z)

        u = np.zeros((n_time + 1, grid.n_points))
        grad = np.zeros_like(u)
        diffs = []
        converged = False
        for _ in range(max_iter):
            h_tab = b_tab * grad + g_tab
            hhat = np.fft.fft(h_tab, axis=1)
            uhat = np.zeros((n_time + 1, grid.n_points), dtype=complex)
            for j in range(n_time - 1, -1, -1):
                local = hhat[j] * w_lo + (hhat[j + 1] - hhat[j]) * w_hi_minus_lo
                uhat[j] = decay * uhat[j + 1] + local
            u_new = np.fft.ifft(uhat, axis=1).real
            d = float(np.max(np.abs(u_new - u)))
            u = u_new
            grad = np.fft.ifft(1j * grid.dual * uhat, axis=1).real
            if d < tol * g_norm:
                converged = True
                break
            diffs.append(d)
            if d > 1e9 * g_norm:
                break  # clearly diverging, go halve the horizon
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        contracting = not ratios or max(ratios[-2:]) < target_ratio
        if converged and contracting:
            return _finish(model, grid, horizon, halvings, times, u, tuple(diffs),
                           True, kappa < 1.0, kappa, drift, g_tab)
        if halvings >= max_halvings:
            raise StiffnessError(
                f"no contraction after halving the horizon {halvings} times "
                f"(last ratios {ratios[-3:]})")
        horizon *= 0.5
        halvings += 1


def _finish(model, grid, horizon, halvings, times, u, diffs, converged, certified,
            kappa, drift: DriftSpec, g_tab: np.ndarray) -> PicardSolution:
    uhat = np.fft.fft(u, axis=1)
    grad = np.fft.ifft(1j * grid.dual * uhat, axis=1).real
    gamma0 = model.moments.gamma0
    h = grid.h
    sem_beta = max(holder_seminorm(row, drift.beta, h) for row in grad)
    sem_g0 = max(holder_seminorm(row, min(1.0, gamma0 / 2.0), h) for row in grad)
    sup_u = float(np.max(np.abs(u)))
    sup_grad = float(np.max(np.abs(grad)))
    g_sup = float(np.max(np.abs(g_tab)))
    g_sem = max(holder_seminorm(row, drift.beta, h) for row in g_tab)
    g_holder = g_sup + g_sem
    numerator = sup_u + (sup_grad + sem_beta) + (sup_grad + sem_g0)
    cert = {
        "sup_u": sup_u,
        "sup_grad": sup_grad,
        "grad_seminorm_beta": sem_beta,
        "grad_seminorm_gamma0_half": sem_g0,
        "source_holder_norm": g_holder,
        "c_of_T": numerator / g_holder if g_holder > 0 else 0.0,
    }
    return PicardSolution(model=model, grid=grid, horizon=horizon, halvings=halvings,
                          times=times, u=u, grad_u=grad, diffs=diffs,
                          converged=converged, certified=certified and converged,
                          kappa=kappa, certificate=cert)


def kolmogorov_residual(solution: PicardSolution, drift: DriftSpec, g,
                        model: LevyModel) -> float:
    """sup over interior nodes of |d_t u + A u + b grad u + g| / sup|g|."""
    grid = solution.grid
    times = solution.times
    u = solution.u
    n_time = times.size - 1
    delta = times[1] - times[0]
    g_tab = _source_table(g, times, grid)
    g_sup = float(np.max(np.abs(g_tab)))
    if g_sup == 0.0:
        g_sup = 1.0
    worst = 0.0
    for j in range(1, n_time):
        du_dt = (u[j + 1] - u[j - 1]) / (2.0 * delta)
        au = apply_generator(u[j], model, grid)
        bgrad = np.asarray(drift(float(times[j]), grid.nodes), dtype=float) \
            * solution.grad_u[j]
        res = float(np.max(np.abs(du_dt + au + bgrad + g_tab[j])))
        if res > worst:
            worst = res
    return worst / g_sup
