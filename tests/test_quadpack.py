"""The private QUADPACK and Brent ports return scipy's bits.

Every case runs scipy and the port on the same Python callable and requires
the same value, error estimate, subinterval count and failure code (for
``brentq``: the same root, or the same exception)."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from levyem import _quadpack, samplers
from levyem.models import LevyModel


def scipy_qagse(f, a, b, limit):
    """(value, abserr, last, ier) from ``integrate.quad``'s full output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = integrate.quad(f, a, b, full_output=1, limit=limit)
    ier = 0
    if len(out) > 3:
        ier, = [k for k, m in _quadpack._MESSAGES.items() if m.format(limit=limit) == out[3]]
    return out[0], out[1], out[2]["last"], ier


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def assert_quad_matches(cases):
    """Each (f, a, b, limit) integrates to scipy's bits; return the ier counts."""
    iers = {}
    for f, a, b, limit in cases:
        want = scipy_qagse(f, a, b, limit)
        got = _quadpack.qagse(f, a, b, limit)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]) \
            and got[2:] == want[2:], (a, b, limit, got, want)
        iers[got[3]] = iers.get(got[3], 0) + 1
    return iers


def tilted_cases(rng, count):
    # _Piece._tilted's integrand in the log variable: r^(p+1) e^(-m r), r = e^u
    for _ in range(count):
        p, m = rng.uniform(-3.2, 0.5), math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        a = rng.uniform(-28.0, 2.0)
        b = min(a + rng.uniform(0.05, 30.0), math.log(745.0 / m) + 2.0)
        if b > a:
            yield (lambda u, p=p, m=m: math.exp((p + 1.0) * u - m * math.exp(u))), a, b, 400


def hard_cases(rng, count):
    """Integrands that reach the epsilon algorithm or the subdivision limit."""
    for _ in range(count):
        c, s, w = rng.uniform(0.0, 1.0), rng.uniform(-0.99, -0.01), rng.uniform(1.0, 300.0)
        g = 10.0 ** rng.uniform(-6.0, -1.0)
        b = rng.uniform(0.1, 10.0)
        yield (lambda x, c=c: abs(x - c) ** -0.5 if x != c else 0.0), 0.0, 1.0, 50
        yield (lambda x, s=s: x ** s), 0.0, b, 50
        yield math.log, 0.0, b, 50
        yield (lambda x, w=w: math.sin(w * x)), 0.0, b, 50
        yield (lambda x, c=c, g=g: g / ((x - c) ** 2 + g * g)), 0.0, 1.0, 50


def test_quad_matches_scipy_on_tilted_integrands():
    iers = assert_quad_matches(tilted_cases(np.random.default_rng(1), 1600))
    assert sum(iers.values()) >= 1500


def test_quad_matches_scipy_where_quadpack_struggles():
    iers = assert_quad_matches(hard_cases(np.random.default_rng(2), 520))
    assert sum(iers.values()) == 2600
    # the subdivision limit, bad behaviour, extrapolation roundoff, divergence
    assert all(iers.get(k, 0) > 0 for k in (0, 1, 3, 4, 5)), iers


def test_quad_warns_with_scipy_message():
    f = lambda x: math.sin(1.0 / x)  # noqa: E731
    with pytest.warns(integrate.IntegrationWarning) as want:
        expected = integrate.quad(f, 0.0, 1.0, limit=30)
    with pytest.warns(_quadpack.IntegrationWarning) as got:
        value = _quadpack.quad(f, 0.0, 1.0, limit=30)
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert value == expected


def brent_outcome(solver, f, a, b):
    try:
        return solver(f, a, b).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(1500):
        r, k = rng.uniform(-5.0, 5.0), int(rng.choice([1, 3, 5]))
        a, b = r - rng.uniform(0.0, 10.0), r + rng.uniform(0.01, 10.0)
        for f in (lambda x: math.tanh(x - r) ** k,
                  lambda x: math.exp(x) - math.exp(r),
                  lambda x: (x - r) ** 3 - 0.5 * (x - r) + 0.1):
            want = brent_outcome(optimize.brentq, f, a, b)
            assert brent_outcome(_quadpack.brentq, f, a, b) == want, (r, k, a, b)
            outcomes.add(want.split(":")[0])
    # roots, brackets without a sign change, and a flat root that stalls
    assert {"ValueError", "RuntimeError"} < outcomes


MODELS = ([LevyModel.tempered_stable(a, m) for a in (1.1, 1.3, 1.5, 1.7, 1.9)
           for m in (0.25, 1.0, 4.0)]
          + [LevyModel.truncated_stable(a) for a in (1.1, 1.5, 1.9)]
          + [LevyModel.layered_stable(a, lam) for a in (1.2, 1.5, 1.8)
             for lam in (0.5, 2.5)])


def test_default_epsilon_runs_scipy_bits(monkeypatch):
    """The truncation thresholds' zero finding and density integrals, at
    each family over a grid of steps, agree with scipy call for call."""
    calls = {"brentq": 0, "quad": 0}
    real_brentq, real_quad = _quadpack.brentq, _quadpack.quad

    def brentq(f, a, b):
        calls["brentq"] += 1
        root = real_brentq(f, a, b)
        assert same_bits(root, optimize.brentq(f, a, b))
        return root

    def quad(f, a, b, limit):
        calls["quad"] += 1
        got = real_quad(f, a, b, limit=limit)
        want = scipy_qagse(f, a, b, limit)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        return got

    monkeypatch.setattr(_quadpack, "brentq", brentq)
    monkeypatch.setattr(_quadpack, "quad", quad)
    for model in MODELS:
        for k in range(0, 13):
            samplers.default_epsilon.__wrapped__(model, 2.0 ** -k)
    assert calls["brentq"] >= 400 and calls["quad"] >= 4000, calls
