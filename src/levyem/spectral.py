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
from typing import Callable, Optional

import numpy as np

from .engine import DriftSpec
from .errors import DomainError, ResolutionError, ShapeError, StiffnessError
from .fitting import fit_powerlaw
from .models import (Family, LevyModel, SubFamily, char_exponent_radial,
                     kappa_exponent, stable_constant)
from .samplers import MAX_ELEMENTS

_CSV_ROWS = 4096  # the most rows a density CSV keeps
_MAX_HALVINGS = 5  # horizon halvings before picard_solve gives up on contraction
_MAX_ITER = 60  # Picard sweeps per horizon before it is halved


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform periodic grid on [-R, R) with a power-of-two node count."""

    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 8 or (n & (n - 1)):
            raise DomainError("n_points must be a power of two >= 8")
        if not (0 < self.half_width < math.inf and 0 < self.h and math.pi / self.h < math.inf):
            raise DomainError(f"half_width must be finite and > 0, with a nonzero spacing h "
                              f"and a finite pi / h at {n} points, got {self.half_width}")

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


@lru_cache(maxsize=8)
def _psi_on_grid(model: LevyModel, grid: SpaceGrid) -> np.ndarray:
    """psi on the dual grid in FFT order; cached, so it is read-only."""
    xi = grid.dual
    half = np.abs(xi[:grid.n_points // 2 + 1])
    prof = char_exponent_radial(model, half)
    psi = np.empty_like(xi)
    psi[:grid.n_points // 2 + 1] = prof
    psi[grid.n_points // 2 + 1:] = prof[1:grid.n_points // 2][::-1]
    psi.flags.writeable = False
    return psi


@lru_cache(maxsize=1)
def _phase_on_grid(grid: SpaceGrid) -> np.ndarray:
    """exp(i R xi) on the dual grid in FFT order, which shifts the inverse FFT
    onto the nodes; cached, so it is read-only.  gradient_scaling_exponent
    empties the cache when it returns or raises, so the phase lives for one
    density command and not through a later solve."""
    phase = np.multiply(1j * grid.half_width, grid.dual)
    np.exp(phase, out=phase)
    phase.flags.writeable = False
    return phase


# A block of rows of complex128 this size stays in cache while it is
# transformed, swept and written back; 8 rows at 4096 points.
_BLOCK_BYTES = 1 << 19


def _row_blocks(n_rows: int, n_points: int) -> list:
    """Slices that cover rows [0, n_rows) in order, each about _BLOCK_BYTES
    of complex128 rows long."""
    rows = max(1, _BLOCK_BYTES // (16 * n_points))
    return [slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]


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

    def to_csv(self, path) -> None:
        """Every node a fixed stride max(1, n_points // 4096) apart: <= 4096 rows."""
        stride = max(1, self.grid.n_points // _CSV_ROWS)
        write_csv(path, "x,value,derivative,second_derivative", np.column_stack(
            [col[::stride] for col in (self.grid.nodes, self.values, self.deriv1,
                                       self.deriv2)]))


def write_csv(path, header: str, data: np.ndarray) -> None:
    """A header line, then one line per row of the 2-D ``data``, each value
    as ``%.18e`` and joined by commas: the bytes ``np.savetxt`` writes with
    ``delimiter=","``, ``comments=""`` and its default format.  Each run of
    _CSV_ROWS rows is formatted by one ``%`` and written at once."""
    line = ",".join(["%.18e"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, data.shape[0], _CSV_ROWS):
            rows = data[start:start + _CSV_ROWS]
            fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def tail_mass_estimate(model: LevyModel, t: float, R: float) -> float:
    """Analytic upper estimate of the density mass outside [-R, R]."""
    fam = model.family
    a = None  # stable index, for the families whose psi is |xi|^a
    if fam in (Family.BROWNIAN, Family.ISOTROPIC_STABLE):
        a = model.alpha or 2.0  # Brownian motion is alpha = 2
    elif fam is Family.SUBORDINATED_BM and model.sub.family is SubFamily.STABLE:
        a = 2.0 * model.sub.rho
    if a == 2.0:
        sd = math.sqrt(2.0 * t)
        return math.erfc(R / (sd * math.sqrt(2.0)))
    if a is not None:
        return 2.0 * t * stable_constant(a) * R ** (-a) / a
    if fam is Family.SUBORDINATED_BM:
        return 4.0 * t * math.exp(-model.sub.m * R)
    if fam in (Family.RELATIVISTIC_STABLE, Family.TEMPERED_STABLE, Family.LAMPERTI_STABLE):
        return 4.0 * t * math.exp(-model.m * R)
    if fam is Family.TRUNCATED_STABLE:
        # all jumps bounded by 1: superexponential tails
        return 2.0 * math.exp(-0.5 * R * math.log1p(R / max(t, 1e-6)))
    lam = model.lambda_tail  # layered stable
    return 2.0 * t * R ** (-lam) / lam


def suggest_grid(model: LevyModel, t_min: float, t_max: float,
                 tail_target: float = 1e-8, max_points: int = 2 ** 21) -> SpaceGrid:
    """Pick (R, N) so exp(-t_min psi) decays below 1e-16 at the Nyquist
    frequency (with xi^2 headroom) and the density tail outside [-R, R] is
    estimated below tail_target; N is capped at max_points."""
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if not 0 < t < math.inf:
            raise DomainError(f"{name} must be finite and > 0, got {t}")
    xi = 4.0
    while True:
        decay = t_min * char_exponent_radial(model, xi) - 2 * math.log(xi)
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
    """Invert exp(-t psi) on the grid; values in (-1e-10, 0) are clipped to 0.

    The three inversions share one complex work array, and each multiplier
    is built in place with the same operations, in the same order, as the
    expression it stands for, so every bit is theirs."""
    if not 0 < t < math.inf:
        raise DomainError(f"t must be finite and > 0, got {t}")
    psi = _psi_on_grid(model, grid)
    phat = np.exp(-t * psi)
    if phat[grid.n_points // 2] > 1e-12:
        raise ResolutionError(
            "exp(-t psi) has not decayed at the Nyquist frequency; enlarge n_points "
            "or shrink half_width")
    xi = grid.dual
    phase = _phase_on_grid(grid)
    dxi = np.pi / grid.half_width
    work = np.empty(grid.n_points, dtype=complex)

    def invert(fhat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Continuous inverse transform (1/2pi) int e^{-i x xi} fhat(xi) dxi on
        the nodes; ``fhat`` may be ``work``, and ``out`` may be ``fhat``."""
        np.multiply(fhat, phase, out=work)
        np.fft.fft(work, out=work)
        return np.multiply(dxi / (2.0 * np.pi), work.real, out=out)

    vals = invert(phat)
    low = float(vals.min())
    if low < -1e-10:
        raise ResolutionError(
            f"density has ringing below tolerance (min {low:.3e}); increase "
            "half_width or n_points")
    vals[vals < 0.0] = 0.0
    mass = float(np.trapezoid(vals, dx=grid.h))
    if not abs(mass - 1.0) <= 1e-6:  # NaN fails too
        raise ResolutionError(
            f"density mass {mass} deviates from 1; increase half_width or n_points")
    np.multiply(-1j, xi, out=work)  # (-1j * xi) * phat
    np.multiply(work, phat, out=work)
    np.square(xi, out=xi)  # (-(xi ** 2)) * phat, real, where xi was
    np.negative(xi, out=xi)
    np.multiply(xi, phat, out=xi)
    del phat
    d1 = invert(work)
    d2 = invert(xi, out=xi)
    return DensityTable(model=model, t=t, grid=grid, values=vals, deriv1=d1,
                        deriv2=d2, mass=mass)


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
    grid: SpaceGrid


def gradient_scaling_exponent(model: LevyModel, t_list,
                              grid: Optional[SpaceGrid] = None, *,
                              on_table: Optional[Callable[[DensityTable], None]] = None
                              ) -> GradientScaling:
    """Fitted slope of log ||p_t'||_L1 against log t, plus the second-derivative
    propagation check at doubled times.  Each distinct time of t_list is one
    point of the fit, and 4 are needed.

    One table is computed per distinct time in t_list and 2 t_list, in
    ascending order, and dropped once its norms are taken, so one table is
    alive at a time.  The tables share one phase exp(i R xi), built by the
    first and dropped when this returns or raises.  ``on_table`` is handed
    each table whose time is in t_list, once, before it is dropped; if a
    later table fails, the calls already made stand."""
    t_list = tuple(sorted({float(t) for t in t_list}))  # a repeated time is one point
    if len(t_list) < 4:
        raise DomainError(f"need at least 4 distinct positive t values, got {len(t_list)}")
    for t in t_list:
        if not 0 < t < math.inf:
            raise DomainError(f"t values must be finite and > 0, got {t}")
    if grid is None:
        # |p'| and |p''| have integrable tails far lighter than p itself, so a
        # much smaller box suffices here than for unit-mass density work
        grid = suggest_grid(model, t_list[0], 2.0 * t_list[-1],
                            tail_target=3e-6, max_points=2 ** 18)
    doubled = {2.0 * t for t in t_list}
    grad_at, second_at = {}, {}
    try:
        for t in sorted(set(t_list) | doubled):
            table = density_fft(model, t, grid)
            if t in t_list:
                grad_at[t] = grad_l1_norm(table)
                if on_table is not None:
                    on_table(table)
            if t in doubled:
                second_at[t] = second_l1_norm(table)
            del table  # before the next table is built
    finally:
        _phase_on_grid.cache_clear()
    grads = [grad_at[t] for t in t_list]
    seconds = [second_at[2.0 * t] for t in t_list]
    fit = fit_powerlaw(np.asarray(t_list), np.asarray(grads))
    prop = all(s2 <= g * g * (1.0 + 1e-3) for s2, g in zip(seconds, grads))
    return GradientScaling(t_values=t_list, grad_norms=tuple(grads),
                           second_norms_2t=tuple(seconds), slope=fit.exponent,
                           half_width=fit.half_width, propagation_ok=prop, grid=grid)


# ----------------------------------------------------------------------
# semigroup and time quadrature
# ----------------------------------------------------------------------

def semigroup_apply(g: np.ndarray, t: float, model: LevyModel,
                    grid: SpaceGrid) -> np.ndarray:
    """(P_t g)(x) = E g(x + L_t) by Fourier multiplication with exp(-t psi)."""
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be finite and >= 0, got {t}")
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_points,):
        raise ShapeError("g must be sampled on the grid")
    psi = _psi_on_grid(model, grid)
    return np.fft.ifft(np.fft.fft(g) * np.exp(-t * psi)).real


def _sup_abs(a: np.ndarray) -> float:
    """max |a| with no temporary the size of ``a``; exact, and NaN carries."""
    return abs(max(float(np.max(a)), -float(np.min(a))))  # abs: max|0| is +0.0


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


def _dyadic_peaks(rows: np.ndarray, spacing: float, max_sep: float) -> list:
    """(separation, max |v[i + step] - v[i]|) at each dyadic step with
    step * spacing <= max_sep, the max taken over every row of ``rows`` that
    has no NaN at that step; the rows are visited in cache-sized blocks."""
    n_rows, n_points = rows.shape
    steps = []
    step = 1
    while step * spacing <= max_sep and step < n_points:
        steps.append(step)
        step *= 2
    if not steps:
        return []
    peaks = [0.0] * len(steps)
    for blk in _row_blocks(n_rows, n_points):
        part = rows[blk]
        for i, step in enumerate(steps):
            diff = np.abs(part[:, step:] - part[:, :-step])
            peaks[i] = float(np.fmax.reduce(diff.max(axis=1), initial=peaks[i]))
    return [(step * spacing, peak) for step, peak in zip(steps, peaks)]


def _holder_quotient(peaks: list, theta: float) -> float:
    """Max Hoelder quotient peak / sep^theta over the dyadic peaks, theta in (0, 1]."""
    best = 0.0
    for sep, peak in peaks:
        q = peak / sep ** theta
        if q > best:
            best = q
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
    residual: float      # sup over interior nodes of |d_t u + A u + b grad u + g| / sup|g|
    certificate: dict = field(default_factory=dict)

    @property
    def ratios(self) -> tuple:
        return tuple(b / a for a, b in zip(self.diffs, self.diffs[1:]) if a > 0)


def _time_table(fn, times: np.ndarray, n_points: int) -> np.ndarray:
    """fn(t) on the grid, one row per time, evaluated a row at a time; when
    every row equals the first bit for bit, a read-only broadcast view of
    that row, not a copy per row."""
    shape = (times.size, n_points)
    table = None
    for i, t in enumerate(times):
        row = np.asarray(fn(float(t)), dtype=float)
        if row.shape != (n_points,):
            raise ShapeError(f"drift and source must be sampled on the grid: got "
                             f"shape {row.shape} for {n_points} nodes")
        if i == 0:
            first, first_bits = row, row.tobytes()
        elif table is None and row.tobytes() != first_bits:
            table = np.empty(shape)
            table[:i] = first
        if table is not None:
            table[i] = row
    return np.broadcast_to(first, shape) if table is None else table


def _distinct_rows(table: np.ndarray) -> np.ndarray:
    """The rows a norm must visit: the first alone for a broadcast view."""
    return table[:1] if table.strides[0] == 0 else table


def picard_solve(drift: DriftSpec, g, T: float, model: LevyModel, grid: SpaceGrid,
                 n_time: int = 128, tol: float = 1e-8,
                 target_ratio: float = 0.95) -> PicardSolution:
    """Solve d_t u + A u + b . grad u = -g on [0, T] with u(T, .) = 0.

    ``g`` is an array on the grid, a callable of t, or None for the drift, g = b(t, .).
    Iterates u <- integral of P_{s-t} [b grad u + g] with the semigroup factor
    integrated exactly per mode over each uniform time interval (the source is
    interpolated linearly).  When the measured contraction factor exceeds
    ``target_ratio``, or no sweep of a fixed 60 reaches ``tol``, the horizon is
    halved, at most a fixed 5 times.  A pair with kappa >= 1 is refused.  The
    solution carries its certificate and the residual of the equation.
    """
    if not 0 < T < math.inf:
        raise DomainError(f"T must be finite and > 0, got {T}")
    if n_time < 1:
        raise DomainError("n_time must be at least 1")
    if n_time + 1 > MAX_ELEMENTS // grid.n_points:
        raise DomainError(f"n_time={n_time} time steps of {grid.n_points} points are more "
                          f"elements than an array can hold (at most {MAX_ELEMENTS})")
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    if not 0 < target_ratio < 1:
        raise DomainError(f"target_ratio must lie in (0, 1), got {target_ratio}")
    kappa = kappa_exponent(model.gradient_index, model.moments.gamma0, drift.beta)
    if kappa >= 1.0:
        raise DomainError(f"singularity exponent kappa={kappa:.4f} >= 1: the drift/noise "
                          "pair violates the balance condition")
    psi = _psi_on_grid(model, grid)
    ik = 1j * grid.dual
    nodes = grid.nodes

    horizon = float(T)
    halvings = 0
    while True:
        times = horizon * np.arange(n_time + 1) / n_time
        delta = horizon / n_time
        b_tab = _time_table(lambda t: drift(t, nodes), times, grid.n_points)
        g_tab = b_tab if g is None else \
            _time_table(g if callable(g) else lambda t: g, times, grid.n_points)
        g_norm = _sup_abs(_distinct_rows(g_tab))

        z = delta * psi
        decay = np.exp(-z).astype(complex)
        w_lo = (delta * _phi1(z)).astype(complex)
        w_hi_minus_lo = (delta * _phi2(z)).astype(complex)

        u = np.zeros((n_time + 1, grid.n_points))
        grad = np.zeros_like(u)
        diffs = []
        converged = False
        for _ in range(_MAX_ITER):
            d = _picard_sweep(b_tab, g_tab, u, grad, decay, w_lo, w_hi_minus_lo, ik)
            if d <= tol * g_norm:  # a zero source converges on its first sweep
                converged = True
                break
            diffs.append(d)
            if d > 1e9 * g_norm:
                break  # clearly diverging, go halve the horizon
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        contracting = not ratios or max(ratios[-2:]) < target_ratio
        if converged and contracting:
            return _finish(model, grid, drift.beta, kappa, horizon, halvings, times,
                           u, grad, tuple(diffs), b_tab, g_tab, g_norm)
        if halvings >= _MAX_HALVINGS:
            raise StiffnessError(
                f"no contraction after halving the horizon {halvings} times "
                f"(last ratios {ratios[-3:]})")
        del u, grad, b_tab, g_tab  # before the shorter horizon's tables
        horizon *= 0.5
        halvings += 1


def _picard_sweep(b_tab: np.ndarray, g_tab: np.ndarray, u: np.ndarray,
                  grad: np.ndarray, decay: np.ndarray, w_lo: np.ndarray,
                  w_hi_minus_lo: np.ndarray, ik: np.ndarray) -> float:
    """One Picard iteration, in place: u <- the exponential-quadrature solve
    with source b grad u + g and u(T, .) = 0, and grad <- its spectral
    gradient.  Returns max |u_new - u|.  ``decay``, ``w_lo`` and
    ``w_hi_minus_lo`` are complex, so no row step casts them.

    The time rows are swept backward in cache-sized blocks: each block is
    transformed, run through the recurrence row by row (the transforms of
    the row after the block carried over from the previous block) and
    transformed back before the next block is touched, so no whole complex
    table is ever built.  Every block lives in the same few buffers and
    every row step writes into them, so a sweep makes no temporary the size
    of a row or more.  The arithmetic of every row is the whole-table
    iteration's, so the result is identical to it bit for bit.
    """
    n_rows, n_points = u.shape
    blocks = _row_blocks(n_rows, n_points)
    shape = (blocks[0].stop - blocks[0].start, n_points)
    real_buf = np.empty(shape)
    hhat_buf = np.empty(shape, dtype=complex)
    uhat_buf = np.empty(shape, dtype=complex)
    work_buf = np.empty(shape, dtype=complex)
    h_carry = np.empty(n_points, dtype=complex)
    u_carry = np.empty(n_points, dtype=complex)
    d = 0.0
    h_next = u_next = None  # transforms of the row after the current one
    for blk in reversed(blocks):
        m = blk.stop - blk.start
        real, hhat, uhat, work = real_buf[:m], hhat_buf[:m], uhat_buf[:m], work_buf[:m]
        np.multiply(b_tab[blk], grad[blk], out=real)
        np.add(real, g_tab[blk], out=real)
        hhat[...] = real
        np.fft.fft(hhat, axis=1, out=hhat)
        for k in range(m - 1, -1, -1):
            hk, uk, tmp = hhat[k], uhat[k], work[k]
            if u_next is None:
                uk.fill(0.0)  # terminal row
            else:  # uk = decay * u_next + (hk * w_lo + (h_next - hk) * w_hi_minus_lo)
                np.multiply(hk, w_lo, out=uk)
                np.subtract(h_next, hk, out=tmp)
                np.multiply(tmp, w_hi_minus_lo, out=tmp)
                np.add(uk, tmp, out=uk)
                np.multiply(decay, u_next, out=tmp)
                np.add(tmp, uk, out=uk)
            h_next, u_next = hk, uk
        np.fft.ifft(uhat, axis=1, out=work)
        np.subtract(work.real, u[blk], out=real)
        np.abs(real, out=real)
        d = float(np.maximum(d, np.max(real)))  # NaN carries
        u[blk] = work.real
        np.multiply(ik, uhat, out=work)
        np.fft.ifft(work, axis=1, out=work)
        grad[blk] = work.real
        h_carry[...] = h_next  # the next block overwrites the buffers
        u_carry[...] = u_next
        h_next, u_next = h_carry, u_carry
    return d


def _finish(model, grid, beta, kappa, horizon, halvings, times, u, grad, diffs,
            b_tab, g_tab, g_sup) -> PicardSolution:
    """The solution, its certificate and its residual, the sup over interior
    nodes of |d_t u + A u + b grad u + g| / sup|g|.  One transform of each
    row block of ``u`` gives both its spectral gradient, written into
    ``grad``, and A u."""
    n_rows, n_points = u.shape
    ik = 1j * grid.dual
    neg_psi = (-_psi_on_grid(model, grid)).astype(complex)
    delta = times[1] - times[0]
    blocks = _row_blocks(n_rows, n_points)
    shape = (blocks[0].stop - blocks[0].start, n_points)
    real_buf, term_buf = np.empty(shape), np.empty(shape)
    uhat_buf = np.empty(shape, dtype=complex)
    work_buf = np.empty(shape, dtype=complex)
    worst = 0.0
    for blk in blocks:
        m = blk.stop - blk.start
        uhat, work = uhat_buf[:m], work_buf[:m]
        uhat[...] = u[blk]
        np.fft.fft(uhat, axis=1, out=uhat)
        np.multiply(ik, uhat, out=work)
        np.fft.ifft(work, axis=1, out=work)
        grad[blk] = work.real
        lo, hi = max(blk.start, 1), min(blk.stop, n_rows - 1)  # interior rows
        if lo < hi:
            # (du_dt + A u) + b grad u + g, each term written into a buffer
            r = hi - lo
            res, term, au = real_buf[:r], term_buf[:r], work[:r]
            np.subtract(u[lo + 1:hi + 1], u[lo - 1:hi - 1], out=res)
            np.divide(res, 2.0 * delta, out=res)
            np.multiply(neg_psi, uhat[lo - blk.start:hi - blk.start], out=au)
            np.fft.ifft(au, axis=1, out=au)
            np.add(res, au.real, out=res)
            np.multiply(b_tab[lo:hi], grad[lo:hi], out=term)
            np.add(res, term, out=res)
            np.add(res, g_tab[lo:hi], out=res)
            np.abs(res, out=res)
            worst = float(np.maximum(worst, np.max(res)))  # NaN carries
    gamma0 = model.moments.gamma0
    grad_peaks = _dyadic_peaks(grad, grid.h, 2.0)
    sem_beta = _holder_quotient(grad_peaks, beta)
    sem_g0 = _holder_quotient(grad_peaks, min(1.0, gamma0 / 2.0))
    sup_u = _sup_abs(u)
    sup_grad = _sup_abs(grad)
    g_sem = _holder_quotient(_dyadic_peaks(_distinct_rows(g_tab), grid.h, 2.0), beta)
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
                          times=times, u=u, grad_u=grad, diffs=diffs, converged=True,
                          certified=kappa < 1.0, kappa=kappa,
                          residual=worst / (g_sup if g_sup != 0.0 else 1.0),
                          certificate=cert)
