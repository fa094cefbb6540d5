"""Catalog of driving Levy processes.

Every model is identified by its characteristic exponent psi, normalised so
that E exp(i xi . L_t) = exp(-t psi(xi)).  All catalog families are symmetric
and pure-jump (no drift vector), except Brownian motion which is the
diffusion reference with psi(xi) = |xi|^2 (hence variance 2t per coordinate).

The module also owns the small-jump/big-jump moment indices of each family,
the balance condition trading drift regularity against small-jump activity,
and the predicted strong convergence rate min{1, p*beta/gamma0, p*eta}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

from .errors import DensityError, DomainError, UnsupportedModelError


class Family(str, enum.Enum):
    BROWNIAN = "brownian"
    ISOTROPIC_STABLE = "isotropic_stable"
    RELATIVISTIC_STABLE = "relativistic_stable"
    TEMPERED_STABLE = "tempered_stable"
    LAMPERTI_STABLE = "lamperti_stable"
    TRUNCATED_STABLE = "truncated_stable"
    LAYERED_STABLE = "layered_stable"
    SUBORDINATED_BM = "subordinated_bm"


class SubFamily(str, enum.Enum):
    STABLE = "stable"
    TEMPERED_STABLE = "tempered_stable"
    CUSTOM = "custom"


@dataclass(frozen=True)
class MomentIndices:
    """Small-jump index gamma0 and big-jump index gamma_inf of the Levy measure.

    ``gamma0_open`` marks gamma0 as an open infimum: every gamma > gamma0 is
    integrable near 0 but gamma0 itself is not (stable-like activity).
    ``gamma_inf_open`` analogously marks an open supremum of tail moments.
    """

    gamma0: float
    gamma_inf: float
    gamma0_open: bool = False
    gamma_inf_open: bool = False

    def __post_init__(self):
        if not (1.0 <= self.gamma0 <= 2.0):
            raise DomainError(f"gamma0 must lie in [1, 2], got {self.gamma0}")
        if not self.gamma_inf > 0:
            raise DomainError(f"gamma_inf must be positive, got {self.gamma_inf}")


@dataclass(frozen=True)
class SubordinatorSpec:
    """A subordinator described by its Laplace exponent (Bernstein function) f.

    rho is the lower growth index: liminf f(lam)/lam^rho > 0.  delta0 and
    delta_inf are the moment indices of the subordinator's Levy measure on
    (0,1) and (1,inf).
    """

    family: SubFamily
    rho: float
    m: float = 0.0  # tilt: tempered family has f(lam) = (lam + m^2)^rho - m^(2 rho)
    delta0: float = 0.0
    delta_inf: float = math.inf
    delta0_open: bool = True
    delta_inf_open: bool = False
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (0 < self.rho <= 1.0):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")
        if self.family is SubFamily.CUSTOM and self.fn is None:
            raise DomainError("custom subordinator requires a Bernstein callable")

    @staticmethod
    def stable(rho: float) -> "SubordinatorSpec":
        return SubordinatorSpec(SubFamily.STABLE, rho, delta0=rho, delta_inf=rho,
                                delta0_open=True, delta_inf_open=True)

    @staticmethod
    def tempered(rho: float, m: float) -> "SubordinatorSpec":
        if m <= 0:
            raise DomainError("tempered subordinator needs tilt m > 0")
        return SubordinatorSpec(SubFamily.TEMPERED_STABLE, rho, m=m,
                                delta0=rho, delta_inf=math.inf, delta0_open=True)

    @staticmethod
    def custom(fn, rho: float, delta0: float, delta_inf: float) -> "SubordinatorSpec":
        return SubordinatorSpec(SubFamily.CUSTOM, rho, delta0=delta0,
                                delta_inf=delta_inf, fn=fn)


def bernstein_eval(sub: SubordinatorSpec, lam):
    """Evaluate the Laplace exponent f(lam) of a subordinator, lam >= 0."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("Bernstein functions are defined on [0, inf)")
    if sub.family is SubFamily.STABLE:
        out = lam ** sub.rho
    elif sub.family is SubFamily.TEMPERED_STABLE:
        m2 = sub.m * sub.m
        out = (lam + m2) ** sub.rho - m2 ** sub.rho
    else:
        out = np.asarray(sub.fn(lam), dtype=float)
    return out if out.ndim else float(out)


def lamperti_bernstein(alpha: float, m: float):
    """Bernstein function (lam + m)_{alpha/2} - (m)_{alpha/2}, Pochhammer in the index.

    Growth lam^(alpha/2) at infinity, so the subordinated process has the
    same gradient index alpha as the isotropic stable one.
    """
    a = 0.5 * alpha

    def f(lam):
        lam = np.asarray(lam, dtype=float)
        val = np.exp(special.gammaln(lam + m + a) - special.gammaln(lam + m))
        val0 = math.exp(special.gammaln(m + a) - special.gammaln(m))
        return val - val0

    return f


@dataclass(frozen=True)
class LevyModel:
    """A driving Levy process: family tag, parameters and derived indices."""

    family: Family
    dim: int = 1
    alpha: Optional[float] = None
    m: Optional[float] = None
    lambda_tail: Optional[float] = None
    sub: Optional[SubordinatorSpec] = None
    gradient_index: float = 2.0
    moments: MomentIndices = field(default_factory=lambda: MomentIndices(2.0, math.inf))

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        if self.m is not None and self.m <= 0:
            raise DomainError("m must be positive")
        if not (1.0 < self.gradient_index <= 2.0):
            raise DomainError("gradient index must lie in (1, 2]")

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @staticmethod
    def brownian(dim: int = 1) -> "LevyModel":
        return LevyModel(Family.BROWNIAN, dim=dim, gradient_index=2.0,
                         moments=MomentIndices(2.0, math.inf))

    @staticmethod
    def isotropic_stable(alpha: float, dim: int = 1, strict: bool = True) -> "LevyModel":
        """psi(xi) = |xi|^alpha.  strict=False admits alpha in (0, 2] for
        analysis-only uses (e.g. the Cauchy density); the convergence theory
        requires alpha > 1."""
        lo = 1.0 if strict else 0.0
        if not (lo < alpha <= 2.0):
            raise DomainError(f"alpha must lie in ({lo}, 2], got {alpha}")
        if alpha == 2.0:
            # degenerate stable: the Gaussian reference with all moments
            moments = MomentIndices(2.0, math.inf)
        else:
            moments = MomentIndices(max(1.0, alpha), alpha,
                                    gamma0_open=True, gamma_inf_open=True)
        grad = alpha if alpha > 1 else 1.0 + 1e-9
        return LevyModel(Family.ISOTROPIC_STABLE, dim=dim, alpha=alpha,
                         gradient_index=min(grad, 2.0), moments=moments)

    @staticmethod
    def relativistic_stable(alpha: float, m: float, dim: int = 1) -> "LevyModel":
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
        return LevyModel(Family.RELATIVISTIC_STABLE, dim=dim, alpha=alpha, m=m,
                         gradient_index=alpha,
                         moments=MomentIndices(alpha, math.inf, gamma0_open=True))

    @staticmethod
    def tempered_stable(alpha: float, m: float) -> "LevyModel":
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
        return LevyModel(Family.TEMPERED_STABLE, dim=1, alpha=alpha, m=m,
                         gradient_index=alpha,
                         moments=MomentIndices(alpha, math.inf, gamma0_open=True))

    @staticmethod
    def lamperti_stable(alpha: float, m: float, dim: int = 1) -> "LevyModel":
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
        return LevyModel(Family.LAMPERTI_STABLE, dim=dim, alpha=alpha, m=m,
                         gradient_index=alpha,
                         moments=MomentIndices(alpha, math.inf, gamma0_open=True))

    @staticmethod
    def truncated_stable(alpha: float) -> "LevyModel":
        """Radial density r^(-1-alpha) on (0, 1), no jumps beyond radius 1."""
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
        return LevyModel(Family.TRUNCATED_STABLE, dim=1, alpha=alpha,
                         gradient_index=alpha,
                         moments=MomentIndices(alpha, math.inf, gamma0_open=True))

    @staticmethod
    def layered_stable(alpha: float, lambda_tail: float) -> "LevyModel":
        """Radial density r^(-1-alpha) on (0,1) and r^(-1-lambda_tail) on [1,inf)."""
        if not (1.0 < alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
        if lambda_tail <= 0:
            raise DomainError("lambda_tail must be positive")
        return LevyModel(Family.LAYERED_STABLE, dim=1, alpha=alpha,
                         lambda_tail=lambda_tail, gradient_index=alpha,
                         moments=MomentIndices(alpha, lambda_tail,
                                               gamma0_open=True, gamma_inf_open=True))

    @staticmethod
    def subordinated_bm(sub: SubordinatorSpec, dim: int = 1) -> "LevyModel":
        """Brownian motion time-changed by ``sub``: psi(xi) = f(|xi|^2)."""
        if sub.rho <= 0.5:
            raise DomainError("subordinated BM needs rho > 1/2 for gradient index > 1")
        gamma0 = min(2.0, 2.0 * sub.delta0) if sub.delta0 > 0 else 1.0
        gamma0 = max(1.0, gamma0)
        gamma_inf = 2.0 * sub.delta_inf if math.isfinite(sub.delta_inf) else math.inf
        return LevyModel(Family.SUBORDINATED_BM, dim=dim, sub=sub,
                         gradient_index=min(2.0, 2.0 * sub.rho),
                         moments=MomentIndices(gamma0, gamma_inf,
                                               gamma0_open=sub.delta0_open,
                                               gamma_inf_open=sub.delta_inf_open))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [self.family.value, f"d={self.dim}"]
        for name in ("alpha", "m", "lambda_tail"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v!r}")
        if self.sub is not None:
            parts.append(f"sub={self.sub.family.value},rho={self.sub.rho!r},m={self.sub.m!r}")
        return "|".join(parts)


# ----------------------------------------------------------------------
# characteristic exponents
# ----------------------------------------------------------------------

def char_exponent_radial(model: LevyModel, s):
    """psi as a function of s = |xi| >= 0; real-valued for the symmetric catalog."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(np.abs(s))
    fam = model.family
    if fam is Family.BROWNIAN:
        out = s * s
    elif fam is Family.ISOTROPIC_STABLE:
        out = s ** model.alpha
    elif fam is Family.RELATIVISTIC_STABLE:
        a, m = model.alpha, model.m
        out = (s * s + m * m) ** (a / 2) - m ** a
    elif fam is Family.TEMPERED_STABLE:
        a, m = model.alpha, model.m
        out = -((s * s + m * m) ** (a / 2)) * np.cos(a * np.arctan(s / m)) + m ** a
    elif fam is Family.LAMPERTI_STABLE:
        out = lamperti_bernstein(model.alpha, model.m)(s * s)
    elif fam is Family.SUBORDINATED_BM:
        out = np.asarray(bernstein_eval(model.sub, s * s), dtype=float)
    elif fam in (Family.TRUNCATED_STABLE, Family.LAYERED_STABLE):
        out = _power_radial_exponent(model, s)
    else:  # pragma: no cover
        raise UnsupportedModelError(f"unknown family {fam}")
    return float(out[0]) if scalar else out


def char_exponent(model: LevyModel, xi) -> complex:
    """psi(xi) for a frequency vector xi of length model.dim."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (model.dim,):
        raise DomainError(f"xi must have length {model.dim}, got shape {xi.shape}")
    return complex(char_exponent_radial(model, float(np.linalg.norm(xi))))


_CI_NODES, _CI_WEIGHTS = np.polynomial.legendre.leggauss(16)


def stable_constant(a: float) -> float:
    """c with |xi|^a = c int (1 - cos(xi y)) |y|^(-1-a) dy in 1-d."""
    return (a * 2.0 ** (a - 1.0) * special.gamma((a + 1.0) / 2.0)
            / (math.sqrt(math.pi) * special.gamma(1.0 - a / 2.0)))


def one_minus_cos_constant(a: float) -> float:
    """C_a = int_0^inf (1 - cos u) u^(-1-a) du for a in (0, 2)."""
    if not (0.0 < a < 2.0):
        raise DomainError("constant defined for exponents in (0, 2)")
    return 1.0 / (2.0 * stable_constant(a))


def _one_minus_cos_tail(a: float, points: np.ndarray) -> np.ndarray:
    """J_a(x) = int_x^inf (1 - cos u) u^(-1-a) du at sorted positive points.

    The seed at the largest point separates the exact mass term from an
    oscillatory-quadrature cosine integral; interior values accumulate
    backwards over Gauss-Legendre panels, subdividing any gap that is wide
    against the cosine period or the power-law variation.
    """
    x_max = float(points[-1])
    osc, _ = integrate.quad(lambda u: u ** (-1.0 - a), x_max, np.inf,
                            weight="cos", wvar=1.0)
    seed = x_max ** (-a) / a - osc
    if points.size == 1:
        return np.array([seed])
    lo = points[:-1]
    hi = points[1:]
    n_sub = np.maximum.reduce([
        np.ones(lo.size, dtype=int),
        np.ceil((hi - lo) / 1.5).astype(int),
        np.ceil(np.log(hi / lo) / 0.35).astype(int),
    ])
    panels = np.empty(lo.size)

    def gl(edges_lo, edges_hi):
        mid = 0.5 * (edges_lo + edges_hi)[:, None]
        half = 0.5 * (edges_hi - edges_lo)[:, None]
        u = mid + half * _CI_NODES[None, :]
        return half[:, 0] * np.dot((1.0 - np.cos(u)) * u ** (-1.0 - a), _CI_WEIGHTS)

    simple = n_sub == 1
    panels[simple] = gl(lo[simple], hi[simple])
    for i in np.nonzero(~simple)[0]:
        k = n_sub[i]
        edges = lo[i] * (hi[i] / lo[i]) ** (np.arange(k + 1) / k)
        panels[i] = float(np.sum(gl(edges[:-1], edges[1:])))
    out = np.empty(points.size)
    out[-1] = seed
    out[:-1] = seed + np.cumsum(panels[::-1])[::-1]
    return out


def _tail_transform(a: float, s: np.ndarray) -> np.ndarray:
    """s^a J_a(s), cancellation-free at both ends."""
    order = np.argsort(s)
    pts = s[order]
    j = np.empty_like(s)
    j[order] = _one_minus_cos_tail(a, pts)
    return s ** a * j


def _power_radial_exponent(model: LevyModel, s: np.ndarray) -> np.ndarray:
    """psi(s) = int (1 - cos(s r)) Q(r) dr for the piecewise pure-power radial
    densities (truncated / layered), via the scaling substitution u = s r."""
    a = model.alpha
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    sp = s[pos]
    if sp.size == 0:
        return out
    low = sp <= 1.0
    inner = np.empty_like(sp)
    # s <= 1: the whole unit ball sits in the Taylor zone of cos
    if np.any(low):
        sl = sp[low]
        acc = np.zeros_like(sl)
        sign, fact = 1.0, 1.0
        for k in range(1, 10):
            fact *= (2 * k - 1) * (2 * k)
            acc += sign * sl ** (2 * k) / (fact * (2 * k - a))
            sign = -sign
        inner[low] = acc
    # s > 1: int_0^1 = s^a (C_a - J_a(s))
    if np.any(~low):
        sh = sp[~low]
        inner[~low] = sh ** a * one_minus_cos_constant(a) - _tail_transform(a, sh)
    out[pos] = inner
    if model.family is Family.LAYERED_STABLE:
        out[pos] += _tail_transform(model.lambda_tail, sp)
    return out


# ----------------------------------------------------------------------
# radial Levy densities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Piece:
    """One segment c * r^(-1-s) * exp(-m r) of a radial density on (lo, hi)."""
    c: float
    s: float
    m: float
    lo: float
    hi: float

    def q(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.zeros_like(r)
        mask = (r > self.lo) & (r <= self.hi) if math.isfinite(self.hi) else (r > self.lo)
        rm = r[mask]
        val = self.c * rm ** (-1.0 - self.s)
        if self.m > 0:
            val = val * np.exp(-self.m * rm)
        out[mask] = val
        return float(out[0]) if scalar else out

    def moment(self, k: float, a: float, b: float) -> float:
        """int_a^b r^k * c r^(-1-s) e^(-m r) dr restricted to the piece."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b <= a:
            return 0.0
        p = k - 1.0 - self.s
        if self.m == 0.0:
            e = p + 1.0
            if e == 0.0:
                if a == 0.0:
                    raise DensityError("logarithmically divergent moment")
                return self.c * math.log(b / a)
            if e < 0.0 and a == 0.0:
                raise DensityError("divergent moment near 0")
            lo_term = 0.0 if a == 0.0 else a ** e
            return self.c * ((b ** e) - lo_term) / e
        if a == 0.0 and p <= -1.0:
            raise DensityError("divergent moment near 0")
        if a == 0.0:
            # e^{-m r} ~ 1 below this cut; handle the (integrable) power part exactly
            cut = min(b, 1e-6 / max(self.m, 1.0))
            head = cut ** (p + 1.0) / (p + 1.0)
            return self.c * (head + self._tilted(p, cut, b))
        return self.c * self._tilted(p, a, b)

    def _tilted(self, p: float, a: float, b: float) -> float:
        """int_a^b r^p e^(-m r) dr via the log substitution r = e^u (no endpoint
        singularity, stable over many orders of magnitude)."""
        if b <= a:
            return 0.0
        u_hi = math.log(b) if math.isfinite(b) else math.log(745.0 / self.m) + 2.0
        u_hi = min(u_hi, math.log(745.0 / self.m) + 2.0)
        u_lo = math.log(a)
        if u_hi <= u_lo:
            return 0.0
        val, _ = integrate.quad(
            lambda u: math.exp((p + 1.0) * u - self.m * math.exp(u)),
            u_lo, u_hi, limit=400)
        return val


@dataclass(frozen=True)
class RadialDensity:
    """Radial jump density Q on (0, inf); the Levy measure on the line is
    nu(dy) = Q(|y|)/2 dy (uniform spherical weight on the two directions)."""

    pieces: tuple

    @property
    def support_hi(self) -> float:
        return max(p.hi for p in self.pieces)

    def q(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.zeros_like(r, dtype=float)
        for p in self.pieces:
            out = out + p.q(r)
        return float(out[0]) if scalar else out

    def moment(self, k: float, a: float, b: float) -> float:
        return float(sum(p.moment(k, a, b) for p in self.pieces))

    def mass(self, a: float, b: float) -> float:
        return self.moment(0.0, a, b)

    def sample_tail(self, eps: float, size: int, gen: np.random.Generator) -> np.ndarray:
        """Draw ``size`` radii from Q restricted to [eps, inf), normalised."""
        weights = []
        samplers = []
        for p in self.pieces:
            lo = max(eps, p.lo)
            hi = p.hi
            if hi <= lo:
                continue
            w = p.moment(0.0, lo, hi)
            if w <= 0:
                continue
            weights.append(w)
            samplers.append((p, lo, hi))
        if not weights:
            return np.empty(0)
        weights = np.asarray(weights)
        probs = weights / weights.sum()
        counts = gen.multinomial(size, probs)
        chunks = []
        for (p, lo, hi), cnt in zip(samplers, counts):
            if cnt == 0:
                continue
            chunks.append(_sample_piece(p, lo, hi, cnt, gen))
        out = np.concatenate(chunks) if chunks else np.empty(0)
        gen.shuffle(out)
        return out


def _sample_piece(p: _Piece, lo: float, hi: float, size: int, gen) -> np.ndarray:
    if p.m == 0.0:
        # exact inverse CDF of r^(-1-s) on [lo, hi]
        u = gen.uniform(size=size)
        lo_p = lo ** (-p.s)
        hi_p = 0.0 if not math.isfinite(hi) else hi ** (-p.s)
        return (lo_p - u * (lo_p - hi_p)) ** (-1.0 / p.s)
    # tilted piece: propose from the pure power, accept with exp(-m (r - lo))
    out = np.empty(size)
    need = np.arange(size)
    while need.size:
        u = gen.uniform(size=need.size)
        lo_p = lo ** (-p.s)
        hi_p = 0.0 if not math.isfinite(hi) else hi ** (-p.s)
        prop = (lo_p - u * (lo_p - hi_p)) ** (-1.0 / p.s)
        acc = gen.uniform(size=need.size) < np.exp(-p.m * (prop - lo))
        out[need[acc]] = prop[acc]
        need = need[~acc]
    return out


def radial_density(model: LevyModel) -> RadialDensity:
    """Closed-form radial density Q for the pure-jump one-dimensional families."""
    fam = model.family
    a = model.alpha
    if fam is Family.TRUNCATED_STABLE:
        return RadialDensity((_Piece(1.0, a, 0.0, 0.0, 1.0),))
    if fam is Family.LAYERED_STABLE:
        return RadialDensity((_Piece(1.0, a, 0.0, 0.0, 1.0),
                              _Piece(1.0, model.lambda_tail, 0.0, 1.0, math.inf)))
    if fam is Family.TEMPERED_STABLE:
        c = a * (a - 1.0) / special.gamma(2.0 - a)
        return RadialDensity((_Piece(c, a, model.m, 0.0, math.inf),))
    raise UnsupportedModelError(f"no closed-form radial density for {fam.value}")


# ----------------------------------------------------------------------
# balance condition and rate prediction
# ----------------------------------------------------------------------

def balance_margin(alpha: float, gamma0: float, beta: float) -> float:
    """Diagnostic margin 2 alpha - gamma0 (1 - beta) - 2."""
    _check_balance_domain(alpha, gamma0, beta)
    return 2.0 * alpha - gamma0 * (1.0 - beta) - 2.0


def balance_check(alpha: float, gamma0: float, beta: float) -> bool:
    """True iff 2 alpha - gamma0 (1 - beta) > 2 (strict)."""
    return balance_margin(alpha, gamma0, beta) > 0.0


def kappa_exponent(alpha: float, gamma0: float, beta: float) -> float:
    """Singularity exponent (2 + gamma0 (1 - beta)) / (2 alpha); < 1 iff balanced."""
    _check_balance_domain(alpha, gamma0, beta)
    return (2.0 + gamma0 * (1.0 - beta)) / (2.0 * alpha)


def _check_balance_domain(alpha, gamma0, beta):
    if not (1.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")
    if not (1.0 <= gamma0 <= 2.0):
        raise DomainError(f"gamma0 must lie in [1, 2], got {gamma0}")
    # beta = 0 admitted for boundary diagnostics even though the theory needs beta > 0
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [0, 1], got {beta}")


def stable_drift_admissible(alpha: float, beta: float) -> bool:
    """Drift admissibility for stable-like noise: beta > 2/alpha - 1.

    Evaluated through the balance margin at gamma0 = alpha (the open-infimum
    limit), so it agrees with :func:`balance_check` bit for bit.
    """
    return balance_margin(alpha, alpha, beta) > 0.0


@dataclass(frozen=True)
class RatePrediction:
    """Predicted exponent of n in the strong error bound."""

    p: float
    beta: float
    eta: float
    gamma0_eff: float
    rate: float
    balance_ok: Optional[bool] = None
    is_supremum: bool = False  # True when gamma0 is an open infimum: the rate is a limit value
    p_clamped: bool = False


def predicted_rate(p: float, beta: float, eta: float, gamma0: float,
                   alpha: Optional[float] = None,
                   gamma0_is_open: bool = False) -> RatePrediction:
    """rate = min{1, p beta / gamma0, p eta}."""
    if p <= 0:
        raise DomainError("p must be positive")
    if not (0.0 < beta <= 1.0) or not (0.0 < eta <= 1.0):
        raise DomainError("beta and eta must lie in (0, 1]")
    if not (1.0 <= gamma0 <= 2.0):
        raise DomainError(f"gamma0 must lie in [1, 2], got {gamma0}")
    rate = min(1.0, p * beta / gamma0, p * eta)
    ok = balance_check(alpha, gamma0, beta) if alpha is not None else None
    return RatePrediction(p=p, beta=beta, eta=eta, gamma0_eff=gamma0, rate=rate,
                          balance_ok=ok, is_supremum=gamma0_is_open)


def predict_for_model(model: LevyModel, beta: float, eta: float, p: float) -> RatePrediction:
    """Model-aware prediction: clamps p to gamma_inf and uses the effective gamma0."""
    mi = model.moments
    p_eff = p
    clamped = False
    if p > mi.gamma_inf:
        p_eff = mi.gamma_inf
        clamped = True
    pred = predicted_rate(p_eff, beta, eta, mi.gamma0,
                          alpha=model.gradient_index, gamma0_is_open=mi.gamma0_open)
    if clamped:
        pred = RatePrediction(**{**pred.__dict__, "p_clamped": True})
    return pred


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
