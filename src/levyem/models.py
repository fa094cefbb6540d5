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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

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

    rho is the lower growth index: liminf f(lam)/lam^rho > 0.  The family and
    rho fix the moment indices of its Levy measure."""

    family: SubFamily
    rho: float
    m: float = 0.0  # tilt: tempered family has f(lam) = (lam + m^2)^rho - m^(2 rho)

    def __post_init__(self):
        if not (0 < self.rho <= 1.0):
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")
        if not (0 < self.m < math.inf if self.family is SubFamily.TEMPERED_STABLE
                else self.m == 0):
            raise DomainError(f"tilt m={self.m}: tempered needs finite m > 0, stable m = 0")


def bernstein_eval(sub: SubordinatorSpec, lam):
    """Evaluate the Laplace exponent f(lam) of a subordinator, lam >= 0."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("Bernstein functions are defined on [0, inf)")
    if sub.family is SubFamily.STABLE:
        out = lam ** sub.rho
    else:
        m2 = sub.m * sub.m
        out = (lam + m2) ** sub.rho - m2 ** sub.rho
    return out if out.ndim else float(out)


def lamperti_bernstein(alpha: float, m: float):
    """Bernstein function (lam + m)_{alpha/2} - (m)_{alpha/2}, Pochhammer in the index.

    Growth lam^(alpha/2) at infinity, so the subordinated process has the
    same gradient index alpha as the isotropic stable one.
    """
    a = 0.5 * alpha
    val0 = math.exp(_log_gamma_ratio(np.float64(m), a))

    def f(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(_log_gamma_ratio(lam + m, a)) - val0

    return f


# B_2k / (2k (2k - 1)) for k = 1..5, the terms of Stirling's series for log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _log_gamma_ratio(x, a):
    """log Gamma(x + a) - log Gamma(x) for x > 0 and 0 < a <= 1.

    Below 10 it is the difference of lgamma values.  From 10 on it is the
    difference of Stirling's series, taken term by term: the two lgamma
    values, of size x log x, would cancel to an error of about x log x * 1e-16."""
    out = np.empty_like(x)
    low = x < 10
    out[low] = [math.lgamma(v + a) - math.lgamma(v) for v in x[low].tolist()]
    xs = x[~low]
    ratio = a * np.log(xs) + (xs + a - 0.5) * np.log1p(a / xs) - a
    for k, c in enumerate(_STIRLING, 1):
        ratio += c * ((xs + a) ** (1 - 2 * k) - xs ** (1 - 2 * k))
    out[~low] = ratio
    return out


# the parameters each family takes; every other parameter must be None
_PARAMETERS = {
    Family.BROWNIAN: (), Family.ISOTROPIC_STABLE: ("alpha",),
    Family.RELATIVISTIC_STABLE: ("alpha", "m"), Family.TEMPERED_STABLE: ("alpha", "m"),
    Family.LAMPERTI_STABLE: ("alpha", "m"), Family.TRUNCATED_STABLE: ("alpha",),
    Family.LAYERED_STABLE: ("alpha", "lambda_tail"), Family.SUBORDINATED_BM: ("sub",),
}
_ONE_DIMENSIONAL = (Family.TEMPERED_STABLE, Family.TRUNCATED_STABLE, Family.LAYERED_STABLE)


@dataclass(frozen=True)
class LevyModel:
    """A driving Levy process: a family and the parameters ``_PARAMETERS`` names for
    it, e.g. ``LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)``; the gradient and
    moment indices are derived from them.  Isotropic stable, psi = |xi|^alpha, admits
    alpha in (0, 2]; ``check_rate_scope`` refuses alpha <= 1.  Truncated stable has radial
    density r^(-1-alpha) on (0, 1) only; layered stable adds r^(-1-lambda_tail) on
    [1, inf).  Subordinated BM is BM time-changed by ``sub``: psi(xi) = f(|xi|^2)."""

    family: Family
    dim: int = 1
    alpha: Optional[float] = None
    m: Optional[float] = None
    lambda_tail: Optional[float] = None
    sub: Optional[SubordinatorSpec] = None
    gradient_index: float = field(init=False)
    moments: MomentIndices = field(init=False)

    def __post_init__(self):
        # Brownian motion is the alpha = 2 member of the isotropic stable family
        fam, a = self.family, 2.0 if self.family is Family.BROWNIAN else self.alpha
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        for name in ("alpha", "m", "lambda_tail", "sub"):
            takes = name in _PARAMETERS[fam]
            if (getattr(self, name) is not None) != takes:
                raise DomainError(f"{fam.value} {'needs' if takes else 'takes no'} {name}")
        # the exponents take m^2 and m^alpha, so a tilt whose square overflows is refused
        if self.m is not None and not (0 < self.m and self.m * self.m < math.inf):
            raise DomainError(f"m must be > 0 with a finite square, got {self.m}")
        if fam in _ONE_DIMENSIONAL and self.dim != 1:
            raise DomainError(f"{fam.value} is one-dimensional")
        if fam is Family.SUBORDINATED_BM:
            rho, stable = self.sub.rho, self.sub.family is SubFamily.STABLE
            if rho <= 0.5:
                raise DomainError("subordinated BM needs rho > 1/2 for gradient index > 1")
            # twice the subordinator's indices: rho (open) at 0, rho (open, stable) or
            # inf at inf; rho = 1 is f(lam) = lam, Brownian motion, with all moments
            grad = min(2.0, 2.0 * rho)
            moments = MomentIndices(2.0, math.inf) if rho == 1.0 else \
                MomentIndices(grad, 2.0 * rho if stable else math.inf,
                              gamma0_open=True, gamma_inf_open=stable)
        elif fam in (Family.BROWNIAN, Family.ISOTROPIC_STABLE):
            if not (0.0 < a <= 2.0):
                raise DomainError(f"alpha must lie in (0.0, 2], got {a}")
            # alpha = 2 is the Gaussian reference, with all moments
            grad = a if a > 1.0 else 1.0 + 1e-9
            moments = MomentIndices(2.0, math.inf) if a == 2.0 else \
                MomentIndices(max(1.0, a), a, gamma0_open=True, gamma_inf_open=True)
        elif not (1.0 < a < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {a}")
        elif fam is Family.LAYERED_STABLE and not 0 < self.lambda_tail < math.inf:
            raise DomainError(f"lambda_tail must be finite and > 0, got {self.lambda_tail}")
        else:
            layered = fam is Family.LAYERED_STABLE
            grad, moments = a, MomentIndices(a, self.lambda_tail if layered else math.inf,
                                             gamma0_open=True, gamma_inf_open=layered)
        object.__setattr__(self, "gradient_index", grad)
        object.__setattr__(self, "moments", moments)

    def describe(self) -> str:
        parts = [self.family.value, f"d={self.dim}"]
        for name in ("alpha", "m", "lambda_tail"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v!r}")
        if self.sub is not None:
            parts.append(f"sub={self.sub.family.value},rho={self.sub.rho!r},m={self.sub.m!r}")
        return "|".join(parts)


def check_rate_scope(model: LevyModel) -> LevyModel:
    """``model`` itself if the convergence theory, which needs alpha > 1, covers it."""
    if model.family is Family.ISOTROPIC_STABLE and not model.alpha > 1.0:
        raise DomainError(f"alpha must lie in (1.0, 2], got {model.alpha}")
    return model


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


_CI_NODES, _CI_WEIGHTS = np.polynomial.legendre.leggauss(16)


def stable_constant(a: float) -> float:
    """c with |xi|^a = c int (1 - cos(xi y)) |y|^(-1-a) dy in 1-d, a in (0, 2)."""
    if not (0.0 < a < 2.0):
        raise DomainError(f"constant defined for exponents in (0, 2), got {a}")
    return (a * 2.0 ** (a - 1.0) * math.gamma((a + 1.0) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(1.0 - a / 2.0)))


def one_minus_cos_constant(a: float) -> float:
    """C_a = int_0^inf (1 - cos u) u^(-1-a) du for a in (0, 2)."""
    return 1.0 / (2.0 * stable_constant(a))


@lru_cache(maxsize=None)
def _laguerre_rule():
    """48-node Gauss-Laguerre rule, built on first use (about 2 ms)."""
    return np.polynomial.laguerre.laggauss(48)


def _one_minus_cos_tail(a: float, points: np.ndarray) -> np.ndarray:
    """J_a(x) = int_x^inf (1 - cos u) u^(-1-a) du at sorted positive points.

    The seed at x0 = max(largest point, 8) separates the exact mass term from
    the cosine integral, which turns onto the contour u = x0 + i t:
    int_x0^inf e^(iu) u^(-1-a) du = i e^(i x0) int_0^inf e^(-t) (x0 + i t)^(-1-a) dt,
    a Gauss-Laguerre sum.  x0 >= 8 keeps the branch point t = i x0 far
    enough from the nodes for the sum to lie within 4e-14 of x0^(-1-a).
    Values below x0 accumulate backwards over Gauss-Legendre panels,
    subdividing any gap that is wide against the cosine period or the
    power-law variation.
    """
    x0 = max(float(points[-1]), 8.0)
    t, w = _laguerre_rule()
    osc = (1j * np.exp(1j * x0) * np.dot(w, (x0 + 1j * t) ** (-1.0 - a))).real
    seed = x0 ** (-a) / a - osc
    n = points.size
    if x0 > points[-1]:  # the panels run down from x0, whose value is dropped
        points = np.append(points, x0)
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
    return out[:n]


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
        from ._quadpack import quad  # on first use: stable runs never compile it
        val, _ = quad(lambda u: math.exp((p + 1.0) * u - self.m * math.exp(u)),
                      u_lo, u_hi, limit=400)
        return val


@dataclass(frozen=True)
class RadialDensity:
    """Radial jump density Q on (0, inf); the Levy measure on the line is
    nu(dy) = Q(|y|)/2 dy (uniform spherical weight on the two directions)."""

    pieces: tuple

    def moment(self, k: float, a: float, b: float) -> float:
        return float(sum(p.moment(k, a, b) for p in self.pieces))

    def mass(self, a: float, b: float) -> float:
        return self.moment(0.0, a, b)

    def sample_tail(self, eps: float, size: int, gen: np.random.Generator) -> np.ndarray:
        """Draw ``size`` radii from Q restricted to [eps, inf), normalised."""
        pieces, probs = _tail_split(self, eps)
        if not pieces:
            return np.empty(0)
        counts = gen.multinomial(size, probs)
        chunks = [_sample_piece(p, lo, hi, cnt, gen)
                  for (p, lo, hi), cnt in zip(pieces, counts) if cnt]
        # a single chunk (always, for the one-piece tempered density) is not copied
        out = chunks[0] if len(chunks) == 1 else np.concatenate([np.empty(0), *chunks])
        gen.shuffle(out)
        return out


@lru_cache(maxsize=256)
def _tail_split(density: RadialDensity, eps: float):
    """The pieces (piece, lo, hi) of ``density`` that carry mass on
    [eps, inf), and the probability of each."""
    weights = []
    pieces = []
    for p in density.pieces:
        lo = max(eps, p.lo)
        hi = p.hi
        if hi <= lo:
            continue
        w = p.moment(0.0, lo, hi)
        if w <= 0:
            continue
        weights.append(w)
        pieces.append((p, lo, hi))
    if not weights:
        return (), None
    weights = np.asarray(weights)
    return tuple(pieces), weights / weights.sum()


# Per-jump draws and tests run this many jumps at a time, so no whole-path
# temporary joins the radii.  The stream is that of one whole draw: a uniform
# takes one 64-bit output, and integers(0, 2) one 32-bit output whose spare
# half the bit generator keeps.
_DRAW_CHUNK = 8192


def _sample_piece(p: _Piece, lo: float, hi: float, size: int, gen) -> np.ndarray:
    lo_p = lo ** (-p.s)
    hi_p = 0.0 if not math.isfinite(hi) else hi ** (-p.s)

    def inverse_cdf(u):
        # (lo_p - u (lo_p - hi_p))^(-1/s), the exact inverse CDF of r^(-1-s)
        # on [lo, hi], computed in place in the uniforms u
        np.multiply(u, lo_p - hi_p, out=u)
        np.subtract(lo_p, u, out=u)
        u **= -1.0 / p.s
        return u

    def accepted(r):
        # the tilt's acceptance test, uniform < exp(-m (r - lo)), a chunk at a time
        acc = np.empty(r.size, dtype=bool)
        test = np.empty(min(r.size, _DRAW_CHUNK))
        for start in range(0, r.size, _DRAW_CHUNK):
            chunk = r[start:start + _DRAW_CHUNK]
            t = test[:chunk.size]
            np.subtract(chunk, lo, out=t)
            np.multiply(t, -p.m, out=t)
            np.less(gen.uniform(size=chunk.size), np.exp(t, out=t),
                    out=acc[start:start + chunk.size])
        return acc

    out = inverse_cdf(gen.uniform(size=size))
    if p.m == 0.0:
        return out
    # tilted piece: propose from the pure power; a rejected slot is redrawn
    need = np.flatnonzero(~accepted(out))
    while need.size:
        prop = inverse_cdf(gen.uniform(size=need.size))
        acc = accepted(prop)
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
        c = a * (a - 1.0) / math.gamma(2.0 - a)
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
    if not p > 0:  # NaN too: min(1.0, nan, nan) would read 1.0
        raise DomainError(f"p must be > 0, got {p}")
    if not (0.0 < beta <= 1.0) or not (0.0 < eta <= 1.0):
        raise DomainError("beta and eta must lie in (0, 1]")
    if not (1.0 <= gamma0 <= 2.0):
        raise DomainError(f"gamma0 must lie in [1, 2], got {gamma0}")
    rate = min(1.0, p * beta / gamma0, p * eta)
    ok = balance_check(alpha, gamma0, beta) if alpha is not None else None
    return RatePrediction(p=p, beta=beta, eta=eta, gamma0_eff=gamma0, rate=rate,
                          balance_ok=ok, is_supremum=gamma0_is_open)


def predict_for_model(model: LevyModel, beta: float, eta: float, p: float) -> RatePrediction:
    """Model-aware prediction: clamps p to gamma_inf and uses the effective gamma0.

    The only place p is clamped: the Monte Carlo harness raises sup-errors
    to the returned ``p``.
    """
    mi = model.moments
    pred = predicted_rate(min(p, mi.gamma_inf), beta, eta, mi.gamma0,
                          alpha=model.gradient_index, gamma0_is_open=mi.gamma0_open)
    return replace(pred, p_clamped=p > mi.gamma_inf)
