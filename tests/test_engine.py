import dataclasses
import hashlib
import math

import numpy as np
import pytest

from levyem.engine import (DriftSpec, as_state, drift_const, drift_cos, drift_cos_time,
                           drift_rough, drift_zero, euler_ladder)
from levyem.errors import DomainError, ShapeError
from levyem.models import Family, LevyModel
from levyem.rng import RngStream
from levyem.samplers import increments
from oracles import drift_diagnostics


def brownian_noise(T, n, seed):
    """One path of Brownian increments, shaped (1, n, 1) for the kernel."""
    return increments(LevyModel(Family.BROWNIAN), T, n, RngStream(seed, 0)).values[None]


def fine_path(drift, x0, T, noise, variant="frozen"):
    """The fine states (paths, n+1, d), rebuilt from prefix runs: the state at
    step k is the terminal state of the run on the first k increments over
    [0, T k / n].  Bit for bit the stepped states when T k / n is exact."""
    paths, n, d = noise.shape
    rows = [np.tile(as_state(x0, d), (paths, 1))]
    rows += [euler_ladder(drift, x0, T * k / n, noise[:, :k], variant=variant)[0]
             for k in range(1, n + 1)]
    return np.stack(rows, axis=1)


class TestEmPath:
    def test_domain(self):
        for T, n in ((0.0, 4), (math.nan, 4), (1.0, 0)):
            with pytest.raises(DomainError):
                euler_ladder(drift_zero(), 0.0, T, np.zeros((1, n, 1)))

    def test_pure_noise_is_cumsum(self):
        noise = brownian_noise(1.0, 32, 1)
        states = fine_path(drift_zero(), 0.0, 1.0, noise)
        expected = np.concatenate([[0.0], np.cumsum(noise[0, :, 0])])
        assert np.array_equal(states[0, :, 0], expected)

    def test_constant_drift_zero_noise_exact_line(self):
        # dyadic step and drift keep every float op exact
        c, T, n = 0.5, 1.0, 8
        states = fine_path(drift_const(c), 0.0, T, np.zeros((1, n, 1)))
        assert np.array_equal(states[0, :, 0], c * (T * np.arange(n + 1) / n))

    def test_cos_drift_matches_straight_line_reimplementation(self):
        noise = brownian_noise(1.0, 8, 2)
        states = fine_path(drift_cos(), 0.3, 1.0, noise)
        x = 0.3
        dt = 1.0 / 8
        for i in range(8):
            x = x + math.cos(x) * dt + float(noise[0, i, 0])
            assert abs(states[0, i + 1, 0] - x) <= 1e-15

    def test_terminal_state_is_last_fine_state(self):
        # the coarse levels of the same call leave the fine state untouched
        noise = np.stack([brownian_noise(1.0, 16, 20 + k)[0] for k in range(3)])
        for drift in (drift_cos(), drift_cos_time()):
            for variant in ("frozen", "timeint"):
                x_T, _ = euler_ladder(drift, 0.3, 1.0, noise, (2, 4), variant)
                assert x_T.shape == (3, 1)
                assert np.array_equal(x_T, fine_path(drift, 0.3, 1.0, noise, variant)[:, -1])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            euler_ladder(drift_zero(), np.zeros(2), 1.0, np.zeros((1, 8, 1)))
        with pytest.raises(ShapeError):
            euler_ladder(drift_zero(), 0.0, 1.0, np.zeros((1, 8, 1)), (3,))

    @pytest.mark.parametrize("T", [math.inf, -math.inf])
    def test_infinite_horizon_refused_before_any_step(self, T):
        calls = []
        drift = DriftSpec(lambda t, x: calls.append(t) or np.zeros_like(x), 1.0, 1.0)
        with pytest.raises(DomainError, match="finite T"):
            euler_ladder(drift, 0.0, T, np.zeros((2, 8, 1)), (2,))
        assert calls == []

    @pytest.mark.parametrize("shape", [(8,), (2, 8), (1, 2, 8, 1)])
    def test_noise_must_be_three_dimensional(self, shape):
        with pytest.raises(ShapeError, match=r"\(paths, n, d\)"):
            euler_ladder(drift_cos(), 0.0, 1.0, np.zeros(shape))

    def test_timeint_variant_matches_frozen_for_time_free_drift(self):
        noise = brownian_noise(1.0, 16, 3)
        a = fine_path(drift_cos(), 0.0, 1.0, noise, variant="frozen")
        b = fine_path(drift_cos(), 0.0, 1.0, noise, variant="timeint")
        assert np.allclose(a, b, atol=1e-12)

    def test_timeint_integrates_time_dependence(self):
        # b(t, x) = cos(t) with zero noise: the scheme with exact time
        # integration reproduces sin(t) on the grid up to quadrature error
        drift = DriftSpec(lambda t, x: np.full_like(x, math.cos(t)), 1.0, 1.0)
        n = 16
        states = fine_path(drift, 0.0, 1.0, np.zeros((1, n, 1)), variant="timeint")
        assert np.allclose(states[0, :, 0], np.sin(np.arange(n + 1) / n), atol=1e-10)


class TestCoupledError:
    def test_zero_drift_exact_zero(self):
        for model in (LevyModel(Family.BROWNIAN), LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)):
            noise = increments(model, 1.0, 64, RngStream(7, 0)).values[None]
            _, sup = euler_ladder(drift_zero(), 0.0, 1.0, noise, (8,))
            assert sup[0, 0] == 0.0

    def test_constant_drift_exact_zero(self):
        noise = increments(LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), 1.0, 64,
                           RngStream(8, 0)).values[None]
        _, sup = euler_ladder(drift_const(1.3), 0.2, 1.0, noise, (8,))
        assert sup[0, 0] == 0.0

    def test_same_resolution_is_zero(self):
        _, sup = euler_ladder(drift_cos(), 0.0, 1.0, brownian_noise(1.0, 32, 9), (1,))
        assert sup[0, 0] == 0.0

    def test_cos_drift_matches_independent_two_pass_oracle(self):
        # one multi-path call with two ladder levels, as the harness makes it
        n_fine, factors, T = 32, (2, 4), 1.0
        noise = np.stack([increments(LevyModel(Family.BROWNIAN), T, n_fine,
                                     RngStream(10, k)).values for k in range(3)])
        # the time-dependent drift checks that the coarse scheme freezes time
        # at its own nodes
        for drift, b in ((drift_cos(), lambda t, x: math.cos(x)),
                         (drift_cos_time(), lambda t, x: math.cos(x + t))):
            _, got = euler_ladder(drift, 0.1, T, noise, factors)
            assert got.shape == (len(factors), len(noise))
            states = fine_path(drift, 0.1, T, noise)

            # oracle: build every path explicitly with plain python floats
            dtf = T / n_fine
            for k, dL in enumerate(noise[:, :, 0].tolist()):
                xs = [0.1]
                for i in range(n_fine):
                    x = xs[-1]
                    xs.append(x + b(i * dtf, x) * dtf + dL[i])
                assert states[k, :, 0] == pytest.approx(xs, abs=1e-12)
                for level, factor in enumerate(factors):
                    ys = [0.1]
                    anchor, anchor_t = 0.1, 0.0
                    for i in range(n_fine):
                        if i % factor == 0:
                            anchor = ys[-1]
                            anchor_t = (i // factor) * (T / (n_fine // factor))
                        ys.append(ys[-1] + b(anchor_t, anchor) * dtf + dL[i])
                    oracle = max(abs(a - b) for a, b in zip(xs, ys))
                    assert got[level, k] == pytest.approx(oracle, abs=1e-12)
                    assert got[level, k] > 0.0

    def test_translation_equivariance_exact_on_dyadic_data(self):
        # dyadic increments, step and shift keep every float op exact, so the
        # shifted run must reproduce the base run bit for bit
        gen = RngStream(11, 0).generator()
        noise = gen.integers(-8, 9, size=(1, 8, 1)).astype(float) / 16.0
        v = 2.75
        base_drift = DriftSpec(lambda t, x: x, 1.0, 1.0)
        shifted_drift = DriftSpec(lambda t, x: x - v, 1.0, 1.0)
        base = fine_path(base_drift, 0.0, 1.0, noise)
        shifted = fine_path(shifted_drift, v, 1.0, noise)
        assert np.array_equal(shifted, base + v)

    def test_translation_equivariance_generic(self):
        v = 2.75
        noise = increments(LevyModel(Family.BROWNIAN), 1.0, 32, RngStream(11, 1)).values[None]
        base = fine_path(drift_cos(), 0.0, 1.0, noise)
        shifted_drift = DriftSpec(lambda t, x: np.cos(x - v), 1.0, 1.0)
        shifted = fine_path(shifted_drift, v, 1.0, noise)
        assert np.allclose(shifted, base + v, atol=1e-13)

    def test_coupling_error_shrinks_with_resolution(self):
        # averaged over paths, doubling n_coarse cannot increase the error by
        # more than statistical noise
        paths = 1000
        T, n_fine = 1.0, 256
        noise = np.stack([increments(LevyModel(Family.BROWNIAN), T, n_fine,
                                     RngStream(12, m)).values for m in range(paths)])
        _, (err_k, err_2k) = euler_ladder(drift_cos(), 0.0, T, noise,
                                          (n_fine // 8, n_fine // 16))
        se = math.hypot(err_k.std(ddof=1), err_2k.std(ddof=1)) / math.sqrt(paths)
        assert err_2k.mean() <= err_k.mean() + 2 * se

    def test_documented_intra_step_bound_is_zero_for_constant_drift(self):
        # between fine nodes both schemes move by drift only (noise is common),
        # so the continuous-time sup exceeds the grid sup by at most
        # 2 * bound * dt; for constant drift the two drifts agree and it is 0
        noise = brownian_noise(1.0, 16, 13)
        _, sup = euler_ladder(drift_const(0.9), 0.0, 1.0, noise, (4,))
        assert sup[0, 0] == 0.0


class TestDriftCatalog:
    def test_diagnostics_cos(self):
        d = drift_diagnostics(drift_cos(), RngStream(14, 0))
        assert d["sup_abs"] <= 1.0
        assert d["space_quotient"] <= 1.0 + 1e-6

    def test_diagnostics_rough(self):
        drift = drift_rough(0.5)
        d = drift_diagnostics(drift, RngStream(15, 0))
        assert d["sup_abs"] <= 1.0
        # beta-quotient of sgn(sin)|sin|^beta stays bounded by a modest constant
        assert d["space_quotient"] <= 2.0

    def test_time_varying_catalog_entry(self):
        d = drift_cos_time()
        assert d(0.0, np.array([0.0]))[0] == 1.0
        assert d(math.pi, np.array([0.0]))[0] == pytest.approx(-1.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            drift_rough(1.0)
        with pytest.raises(DomainError):
            DriftSpec(lambda t, x: x, beta=0.0, eta=1.0)

    def test_name_is_keyword_only_and_no_bound_is_declared(self):
        # a fourth positional value, such as a sup bound, is refused rather
        # than taken as the name
        with pytest.raises(TypeError):
            DriftSpec(lambda t, x: x, 1.0, 1.0, 1.0)
        assert [f.name for f in dataclasses.fields(DriftSpec)] == ["fn", "beta", "eta", "name"]
        assert DriftSpec(lambda t, x: x, 1.0, 1.0, name="id").name == "id"


# sha256 of the other paths' terminal states and sup gaps in
# test_nan_step_marks_only_its_path, recorded before the sup gap was folded
# in blocks of steps
NAN_OTHERS_SHA256 = {
    "frozen-d1-step0":
        "b00e7db6d7cf165abfa42f9f262b38175f59f2707ba208dc6b6a6f159eddb694",
    "frozen-d1-step21":
        "b00e7db6d7cf165abfa42f9f262b38175f59f2707ba208dc6b6a6f159eddb694",
    "frozen-d1-step39":
        "b00e7db6d7cf165abfa42f9f262b38175f59f2707ba208dc6b6a6f159eddb694",
    "frozen-d3-step0":
        "b7d50702ee66998f8b147aa245c6fd2b4a7c838d6a01c9a1cdfb89b94de76e6f",
    "frozen-d3-step21":
        "b7d50702ee66998f8b147aa245c6fd2b4a7c838d6a01c9a1cdfb89b94de76e6f",
    "frozen-d3-step39":
        "b7d50702ee66998f8b147aa245c6fd2b4a7c838d6a01c9a1cdfb89b94de76e6f",
    "timeint-d1-step0":
        "accfdf045e5aeb811415614e638a7cf14e33faab7afa5f4558d1937c6a6c672d",
    "timeint-d1-step21":
        "accfdf045e5aeb811415614e638a7cf14e33faab7afa5f4558d1937c6a6c672d",
    "timeint-d1-step39":
        "accfdf045e5aeb811415614e638a7cf14e33faab7afa5f4558d1937c6a6c672d",
    "timeint-d3-step0":
        "0fc8a8ea0b48d84ea08de23cec2a738c64f5be6139161e529c32b93cdd36df1d",
    "timeint-d3-step21":
        "0fc8a8ea0b48d84ea08de23cec2a738c64f5be6139161e529c32b93cdd36df1d",
    "timeint-d3-step39":
        "0fc8a8ea0b48d84ea08de23cec2a738c64f5be6139161e529c32b93cdd36df1d",
}


@pytest.mark.parametrize("variant", ["frozen", "timeint"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("step", [0, 21, 39])
def test_nan_step_marks_only_its_path(variant, d, step):
    # a NaN increment at one step of one path gives that path a NaN sup at
    # every level, however the steps are grouped before their gaps are folded,
    # and leaves every other path as it was
    noise = RngStream(41, d).generator().standard_cauchy((4, 40, d)) * 0.1
    clean_x, clean_sup = euler_ladder(drift_cos_time(), 0.3, 1.0, noise, (8, 4, 2), variant)
    noise[2, step, d - 1] = np.nan
    x_T, sup = euler_ladder(drift_cos_time(), 0.3, 1.0, noise, (8, 4, 2), variant)
    assert np.isnan(sup[:, 2]).all()
    others = [0, 1, 3]
    assert not np.isnan(sup[:, others]).any()
    assert x_T[others].tobytes() == clean_x[others].tobytes()
    assert sup[:, others].tobytes() == clean_sup[:, others].tobytes()
    got = hashlib.sha256(x_T[others].tobytes() + sup[:, others].tobytes()).hexdigest()
    assert got == NAN_OTHERS_SHA256[f"{variant}-d{d}-step{step}"]
