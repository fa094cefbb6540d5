import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special, stats

from levyem.errors import DomainError, ShapeError, UnsupportedModelError
from levyem.models import (Family, LevyModel, SubFamily, SubordinatorSpec, char_exponent_radial,
                           radial_density)
from levyem.rng import RngStream
from levyem.samplers import (IncrementBatch, default_epsilon, increments,
                             load_batch, sample_jump_decomposition,
                             sample_stable, sample_stable_subordinator,
                             sample_subordinated_bm,
                             sample_tempered_subordinator, save_batch)
from oracles import radial_q


def empirical_cf_gap(values, model, t, xi_grid):
    """sup over the grid of |empirical CF - exp(-t psi)|."""
    worst = 0.0
    for x in xi_grid:
        emp = np.exp(1j * x * values).mean()
        worst = max(worst, abs(emp - math.exp(-t * char_exponent_radial(model, x))))
    return worst


class TestStreams:
    @pytest.mark.parametrize("draw", ["integers", "uniform"])
    def test_chunked_draws_give_one_whole_draw(self, draw):
        # the jump path draws its tilt tests and signs a chunk at a time; on a
        # Philox stream, chunks of any lengths, odd ones included, give the
        # bytes of one whole call (a 32-bit draw keeps its spare half in the
        # bit generator), and leave the stream where the whole call does
        def take(gen, k):
            return gen.integers(0, 2, k) if draw == "integers" else gen.uniform(size=k)

        lengths = (1, 4095, 3, 8192, 5, 1)
        whole_gen = RngStream(31, 0).generator()
        whole = take(whole_gen, sum(lengths))
        gen = RngStream(31, 0).generator()
        parts = np.concatenate([take(gen, k) for k in lengths])
        assert whole.tobytes() == parts.tobytes()

        def after(g):
            return g.integers(0, 2, 3).tobytes() + g.uniform(size=3).tobytes()

        assert after(whole_gen) == after(gen)

    def test_bit_reproducible(self):
        a = RngStream(123, 5).generator().standard_normal(100)
        b = RngStream(123, 5).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        n = 100_000
        u0 = RngStream(2024, 0).generator().uniform(size=n)
        u1 = RngStream(2024, 1).generator().uniform(size=n)
        r = np.corrcoef(u0, u1)[0, 1]
        assert abs(r) < 0.01

    def test_out_of_range_seed_is_a_domain_error(self):
        for seed, stream in ((-1, 0), (2**64, 0), (0, -1)):
            with pytest.raises(DomainError):
                RngStream(seed, stream)


class TestStableSampler:
    def test_alpha2_is_gaussian_variance_two(self):
        x = sample_stable(2.0, 1.0, 400_000, RngStream(1, 0))
        assert x.var() == pytest.approx(2.0, rel=0.02)
        # distributional check, not just the variance
        assert stats.kstest(x, "norm", args=(0.0, math.sqrt(2.0))).pvalue > 0.01

    def test_empirical_cf(self):
        m = 400_000
        x = sample_stable(1.5, 1.0, m, RngStream(2, 0))
        for xi in (0.5, 1.0, 2.0):
            emp = np.exp(1j * xi * x).mean()
            assert abs(emp - math.exp(-abs(xi) ** 1.5)) <= 3.0 / math.sqrt(m)

    def test_scaling_property(self):
        a = sample_stable(1.5, 2.0, 50_000, RngStream(3, 0))
        b = 2.0 * sample_stable(1.5, 1.0, 50_000, RngStream(3, 1))
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_stable(2.5, 1.0, 10, RngStream(0, 0))


class TestStableSubordinator:
    def test_laplace_transform(self):
        m, t = 300_000, 0.8
        s = sample_stable_subordinator(0.75, t, RngStream(4, 0), size=m)
        samples = np.exp(-s)
        est, se = samples.mean(), samples.std(ddof=1) / math.sqrt(m)
        assert abs(est - math.exp(-t * 1.0 ** 0.75)) <= 3 * se

    def test_scaling(self):
        t = 0.3
        a = sample_stable_subordinator(0.75, t, RngStream(5, 0), size=50_000)
        b = t ** (1 / 0.75) * sample_stable_subordinator(0.75, 1.0, RngStream(5, 1), size=50_000)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_half_stable_is_levy_distribution(self):
        # rho = 1/2: S with Laplace transform exp(-sqrt(lam)) has cdf erfc(1/(2 sqrt(s)))
        s = sample_stable_subordinator(0.5, 1.0, RngStream(6, 0), size=100_000)
        res = stats.kstest(s, lambda v: special.erfc(1.0 / (2.0 * np.sqrt(v))))
        assert res.statistic < 0.01

    def test_rho_one_degenerate(self):
        s = sample_stable_subordinator(1.0, 0.37, RngStream(7, 0), size=100)
        assert np.all(s == 0.37)


class TestTemperedSubordinator:
    def test_acceptance_probability_identity(self):
        # the rejection step accepts with exp(-m^2 S); its mean is the Laplace
        # transform of the stable proposal at m^2
        rho, m, tau = 0.75, 1.0, 0.4
        mm = 200_000
        s = sample_stable_subordinator(rho, tau, RngStream(8, 0), size=mm)
        acc = np.exp(-m * m * s)
        se = acc.std(ddof=1) / math.sqrt(mm)
        assert abs(acc.mean() - math.exp(-tau * m ** (2 * rho))) <= 3 * se

    def test_zero_tilt_limit_matches_stable(self):
        a = sample_tempered_subordinator(0.75, 1e-8, 0.5, RngStream(9, 0), size=40_000)
        b = sample_stable_subordinator(0.75, 0.5, RngStream(9, 1), size=40_000)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_laplace_transform(self):
        rho, m, t = 0.75, 1.0, 0.6
        mm = 300_000
        s = sample_tempered_subordinator(rho, m, t, RngStream(10, 0), size=mm)
        vals = np.exp(-s)
        target = math.exp(-t * ((1.0 + m * m) ** rho - m ** (2 * rho)))
        se = vals.std(ddof=1) / math.sqrt(mm)
        assert abs(vals.mean() - target) <= 3 * se

    def test_horizon_splitting_additivity(self):
        # large t m^(2 rho) forces splitting; the law must still match
        rho, m = 0.75, 2.0
        t = 2.0
        mm = 200_000
        s = sample_tempered_subordinator(rho, m, t, RngStream(11, 0), size=mm)
        vals = np.exp(-0.5 * s)
        target = math.exp(-t * ((0.5 + m * m) ** rho - m ** (2 * rho)))
        se = vals.std(ddof=1) / math.sqrt(mm)
        assert abs(vals.mean() - target) <= 3 * se

    def test_rho_one_is_the_identity_time_in_either_family(self):
        # (lam + m^2) - m^2 = lam: a tilted rho = 1 subordinator is S_t = t
        subs = (SubordinatorSpec(SubFamily.TEMPERED_STABLE, 1.0, 2.0),
                SubordinatorSpec(SubFamily.STABLE, 1.0))
        tempered, stable = (increments(LevyModel(Family.SUBORDINATED_BM, sub=sub), 1.0, 4,
                                       RngStream(0, 0)).values for sub in subs)
        assert np.array_equal(tempered, stable)


class TestSubordinatedBM:
    def test_zero_time_gives_zero(self):
        out = sample_subordinated_bm(np.zeros(1), 3, RngStream(12, 0))[0]
        assert np.array_equal(out, np.zeros(3))

    def test_norm_is_scaled_chi3(self):
        # |sqrt(2 S) Z| at S = 1 is sqrt(2) times a chi(3); the sqrt(2) is the
        # catalog CF normalisation psi(xi) = f(|xi|^2)
        out = sample_subordinated_bm(np.ones(100_000), 3, RngStream(13, 0))
        norms = np.linalg.norm(out, axis=1) / math.sqrt(2.0)
        assert stats.kstest(norms, "chi", args=(3,)).pvalue > 0.01

    def test_negative_subordinator_rejected(self):
        with pytest.raises(DomainError):
            sample_subordinated_bm(np.array([-0.1]), 1, RngStream(0, 0))

    @pytest.mark.parametrize("sample", [1.0, [[1.0, 2.0]]])
    def test_samples_must_be_one_dimensional(self, sample):
        with pytest.raises(ShapeError, match="1-D array"):
            sample_subordinated_bm(sample, 2, RngStream(0, 0))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("dt", [1.0, 0.1, 1.0 / 3.0, 2.0 ** -11])
    def test_isotropic_alpha2_is_the_brownian_line(self, d, dt):
        # a rho = 1 stable subordinator draws nothing, so the subordination
        # route gives the Brownian increments from the same stream
        n = 64
        vals = increments(LevyModel(Family.ISOTROPIC_STABLE, alpha=2.0, dim=d), dt * n, n,
                          RngStream(8, 2)).values
        expected = RngStream(8, 2).generator().standard_normal((n, d)) * math.sqrt(2.0 * dt)
        assert np.array_equal(vals, expected)

    def test_subordination_route_reproduces_recorded_draws(self):
        # sha256 of the increments, recorded when each family still called
        # its subordinator sampler directly
        for model, digest in (
                (LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=3),
                 "02e74db4f9a3834c1092a23f651e17323dbdde59da95ce7520141e5614912a2c"),
                (LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
                 "561cb58dadd4b90ad6115a785add18c8923484cf0ca044a6a99eb5ed688d8652"),
                (LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.2, m=2.0, dim=2),
                 "7c684dab63481a95e655933cba62060ac95e76f75cb760de3539ee9fdd643012"),
                (LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.8)),
                 "b5950b52c0255d962d3a16968f78be0b4ea65bfaa738d3eb561a0c2175ff1fca"),
                (LevyModel(Family.SUBORDINATED_BM,
                           sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 2.0), dim=2),
                 "57601542ff4654ab4247501b49728be9deafca75b5b40be325dc00df8d1a9962")):
            vals = increments(model, 2.0, 64, RngStream(31, 4)).values
            assert hashlib.sha256(vals.tobytes()).hexdigest() == digest, model.describe()

    def test_relativistic_pipeline_cf(self):
        model = LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0)
        t = 0.4
        mm = 400_000
        batch = increments(model, t * mm, mm, RngStream(14, 0))
        gap = empirical_cf_gap(batch.values[:, 0], model, t, np.linspace(0.2, 3.0, 8))
        assert gap <= 3.0 / math.sqrt(mm)


class TestJumpDecomposition:
    def test_truncated_at_eps_one_is_pure_gaussian(self):
        model = LevyModel(Family.TRUNCATED_STABLE, alpha=1.5)
        vals, meta = sample_jump_decomposition(model, 1.0, 0.1, RngStream(15, 0),
                                               size=200_000)
        assert meta.intensity == 0.0
        assert vals.var() == pytest.approx(0.1 * meta.sigma2, rel=0.02)
        sd = math.sqrt(0.1 * meta.sigma2)
        assert stats.kstest(vals, "norm", args=(0.0, sd)).pvalue > 0.01

    def test_sigma2_matches_independent_quadrature(self):
        for model in (LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
                      LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)):
            rd = radial_density(model)
            eps = 0.07
            _, meta = sample_jump_decomposition(model, eps, 0.1, RngStream(16, 0), size=8)
            oracle, _ = integrate.quad(lambda r: r * r * radial_q(rd, r), 0, eps,
                                       points=[eps / 2], limit=200)
            assert meta.sigma2 == pytest.approx(oracle, rel=1e-8)

    def test_poisson_count_mean(self):
        model = LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)
        rd = radial_density(model)
        eps, dt = 0.2, 0.3
        mm = 100_000
        _, meta = sample_jump_decomposition(model, eps, dt, RngStream(17, 0), size=mm)
        # replay the sampler's stream: the Gaussian part, then the jump counts
        gen = RngStream(17, 0).generator()
        gen.standard_normal(mm)
        counts = gen.poisson(dt * meta.intensity, mm)
        tail_a, _ = integrate.quad(partial(radial_q, rd), eps, 1.0, limit=200)
        tail_b, _ = integrate.quad(partial(radial_q, rd), 1.0, np.inf, limit=200)
        target = dt * (tail_a + tail_b)
        se = counts.std(ddof=1) / math.sqrt(mm)
        assert abs(counts.mean() - target) <= 3 * se
        assert meta.intensity == pytest.approx(tail_a + tail_b, rel=1e-8)

    def test_tempered_cf_with_bias_budget(self):
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        t = 0.25
        mm = 200_000
        eps = 0.05
        vals, meta = sample_jump_decomposition(model, eps, t, RngStream(18, 0), size=mm)
        xi_grid = np.linspace(0.2, 3.0, 8)
        for x in xi_grid:
            emp = np.exp(1j * x * vals).mean()
            target = math.exp(-t * char_exponent_radial(model, x))
            assert abs(emp - target) <= 3.0 / math.sqrt(mm) + meta.cf_bias_bound(x, t)

    def test_default_epsilon_budgets_jump_rate(self):
        model = LevyModel(Family.TRUNCATED_STABLE, alpha=1.5)
        rd = radial_density(model)
        for dt in (0.5, 0.01):
            eps = default_epsilon(model, dt)
            # expected jumps per step stay within the work budget
            assert rd.mass(eps, math.inf) * dt <= 64.0 * 1.01
        # a long step of near-Cauchy activity meets the bias rule within the
        # budget, so the pure bias rule binds instead
        model = LevyModel(Family.TRUNCATED_STABLE, alpha=1.05)
        rd = radial_density(model)
        eps = default_epsilon(model, 10.0)
        assert rd.mass(eps, math.inf) * 10.0 < 64.0
        assert math.sqrt(rd.moment(2.0, 0.0, eps)) <= 0.05 * 10.0 ** (1 / 1.05) * 1.01

    def test_default_epsilon_handles_tiny_steps(self):
        # at small dt the bias rule is unattainable within the bracket and the
        # budget floor must take over instead of breaking the root solve
        for model in (LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
                      LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
                      LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)):
            rd = radial_density(model)
            for n in (256, 2048):
                eps = default_epsilon(model, 1.0 / n)
                assert 0.0 < eps <= 1.0
                assert rd.mass(eps, math.inf) / n <= 64.0 * 1.01

    @pytest.mark.parametrize("model", [
        LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
        LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
        LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
    ], ids=["tempered", "truncated", "layered"])
    def test_jump_path_holds_about_two_jump_arrays(self, model):
        # 512 steps at 64 expected jumps each: the peak is the radii and their
        # owners, as the tilt test and the signs run a chunk at a time.  The
        # warm-up call imports numpy.random and fills the threshold caches.
        increments(model, 1.0, 512, RngStream(32, 0))
        tracemalloc.start()
        try:
            increments(model, 1.0, 512, RngStream(32, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 64 * 512 * 8

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            sample_jump_decomposition(LevyModel(Family.TRUNCATED_STABLE, alpha=1.5), 1.5, 0.1,
                                      RngStream(0, 0), size=4)


class TestIncrements:
    def test_brownian_variance(self):
        batch = increments(LevyModel(Family.BROWNIAN), 1.0, 4, RngStream(19, 0))
        assert batch.values.shape == (4, 1)
        big = increments(LevyModel(Family.BROWNIAN), 25_000.0, 100_000, RngStream(19, 1))
        assert big.values.var() == pytest.approx(2.0 * 0.25, rel=0.02)

    def test_additivity(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        mm = 30_000
        ends_fine, ends_coarse = np.empty(mm), np.empty(mm)
        for k in range(mm):
            ends_fine[k] = increments(model, 1.0, 4, RngStream(20, k)).values.sum()
        for k in range(mm):
            ends_coarse[k] = increments(model, 1.0, 2, RngStream(21, k)).values.sum()
        assert stats.ks_2samp(ends_fine, ends_coarse).pvalue > 0.01

    def test_self_similarity(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        t = 0.35
        a = increments(model, t * 50_000, 50_000, RngStream(22, 0)).values[:, 0]
        b = t ** (1 / 1.5) * increments(model, 50_000.0, 50_000, RngStream(22, 1)).values[:, 0]
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_reproducibility(self):
        model = LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)
        a = increments(model, 1.0, 64, RngStream(23, 7))
        b = increments(model, 1.0, 64, RngStream(23, 7))
        assert np.array_equal(a.values, b.values)

    def test_exact_samplers_have_no_meta(self):
        assert increments(LevyModel(Family.BROWNIAN), 1.0, 8, RngStream(0, 0)).meta is None
        assert increments(LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0), 1.0, 8,
                          RngStream(0, 0)).meta is not None

    def test_multidimensional_stable(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=3)
        batch = increments(model, 1.0, 32, RngStream(24, 0))
        assert batch.values.shape == (32, 3)

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedModelError):
            increments(LevyModel(Family.LAMPERTI_STABLE, alpha=1.5, m=1.0), 1.0, 8,
                       RngStream(0, 0))

    def test_heavy_tail_moment_behaviour(self):
        # p = 1 < alpha: the empirical mean of |L_1| settles as M grows
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        small = np.abs(increments(model, 100_000.0, 100_000, RngStream(25, 0)).values)
        large = np.abs(increments(model, 200_000.0, 200_000, RngStream(25, 1)).values)
        se = small.std(ddof=1) / math.sqrt(small.size)
        assert abs(small.mean() - large.mean()) <= 5 * se
        # the tempered family keeps fourth moments, stable under doubling
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        a = sample_jump_decomposition(model, 0.05, 1.0, RngStream(26, 0), size=50_000)[0] ** 4
        b = sample_jump_decomposition(model, 0.05, 1.0, RngStream(26, 1), size=100_000)[0] ** 4
        assert abs(a.mean() - b.mean()) / b.mean() < 0.25


_STABLE = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
_TEMPERED = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
# each sampler with a NaN or infinite step or scale in place of its time argument
NON_FINITE_CALLS = {
    "increments-isotropic": lambda t, g: increments(_STABLE, t, 8, g),
    "increments-isotropic-d2": lambda t, g: increments(
        LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=2), t, 8, g),
    "increments-tempered": lambda t, g: increments(_TEMPERED, t, 4, g),
    "increments-brownian": lambda t, g: increments(LevyModel(Family.BROWNIAN), t, 4, g),
    "jump_decomposition": lambda t, g: sample_jump_decomposition(_TEMPERED, 0.1, t, g, 4),
    "stable": lambda t, g: sample_stable(1.5, t, 4, g),
    "stable_subordinator": lambda t, g: sample_stable_subordinator(0.5, t, g, 4),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_time_or_scale_refused_before_any_draw(call, value):
    gen = RngStream(8, 1).generator()
    with pytest.raises(DomainError, match="must be finite"):
        NON_FINITE_CALLS[call](value, gen)
    # nothing was drawn: the stream still starts where a fresh one does
    assert np.array_equal(gen.uniform(size=4), RngStream(8, 1).generator().uniform(size=4))


# each call whose self-similar scale t ** (1 / index) overflows a float, or
# whose Gaussian scale sqrt(2 dt) or sqrt(2 S) does through 2 dt or 2 S
OVERFLOW_CALLS = {
    "increments-relativistic": (lambda g: increments(
        LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1e-200), 1e300, 1, g),
        "t ** 1.3333333333333333 overflows a float at t=5e+299"),
    "increments-isotropic-0.5": (lambda g: increments(
        LevyModel(Family.ISOTROPIC_STABLE, alpha=0.5), 1e200, 1, g),
        "t ** 2.0 overflows a float at t=1e+200"),
    "stable_subordinator": (lambda g: sample_stable_subordinator(0.75, 1e300, g, 4),
                            "t ** 1.3333333333333333 overflows a float at t=1e+300"),
    "increments-brownian": (lambda g: increments(LevyModel(Family.BROWNIAN), 1e308, 1, g),
                            "sqrt(2 dt) overflows a float at dt=1e+308"),
    "increments-subordinated-rho1": (lambda g: increments(
        LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 1.0)),
        1e308, 1, g), "sqrt(2 S) overflows a float at S=1e+308"),
    "subordinated_bm": (lambda g: sample_subordinated_bm(np.array([1.0, 1e308]), 2, g),
                        "sqrt(2 S) overflows a float at S=1e+308"),
}


@pytest.mark.parametrize("call", sorted(OVERFLOW_CALLS))
def test_overflowing_scale_refused_before_any_draw(call):
    fn, message = OVERFLOW_CALLS[call]
    gen = RngStream(8, 3).generator()
    state = repr(gen.bit_generator.state)  # Philox keeps its counter in arrays
    with pytest.raises(DomainError) as exc:
        fn(gen)
    assert message in str(exc.value)
    assert repr(gen.bit_generator.state) == state


@pytest.mark.parametrize("model", [LevyModel(Family.BROWNIAN), _STABLE, _TEMPERED],
                         ids=["brownian", "stable", "tempered"])
def test_underflowing_step_refused_before_any_draw(model):
    # dt = T / n rounds to 0, which default_epsilon divides by and the Gaussian
    # and stable scales turn into zeros: refused with T and n named
    gen = RngStream(8, 4).generator()
    with pytest.raises(DomainError, match=r"T / n underflows to 0 at T=5e-324 and n=4$"):
        increments(model, 5e-324, 4, gen)
    assert np.array_equal(gen.uniform(size=4), RngStream(8, 4).generator().uniform(size=4))


# each sampler with a negative size, or NaN among the subordinator samples
BAD_SIZE_CALLS = {
    "stable_subordinator": lambda g: sample_stable_subordinator(0.5, 1.0, g, -1),
    "stable_subordinator-rho1": lambda g: sample_stable_subordinator(1.0, 1.0, g, -1),
    "tempered_subordinator": lambda g: sample_tempered_subordinator(0.5, 1.0, 1.0, g, -2),
    "jump_decomposition": lambda g: sample_jump_decomposition(_TEMPERED, 0.1, 0.5, g, -1),
    "subordinated_bm-nan": lambda g: sample_subordinated_bm(np.array([1.0, math.nan]), 2, g),
}


@pytest.mark.parametrize("call", sorted(BAD_SIZE_CALLS))
def test_negative_size_or_nan_subordinator_refused_before_any_draw(call):
    gen = RngStream(8, 2).generator()
    with pytest.raises(DomainError, match="size must be >= 0|nonnegative numbers"):
        BAD_SIZE_CALLS[call](gen)
    assert np.array_equal(gen.uniform(size=4), RngStream(8, 2).generator().uniform(size=4))


class TestBinaryDump:
    def test_round_trip(self, tmp_path):
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        batch = increments(model, 1.0, 32, RngStream(27, 3))
        path = tmp_path / "inc.bin"
        save_batch(batch, path)
        loaded = load_batch(path, model)
        assert np.array_equal(loaded.values, batch.values)
        assert loaded.dt == batch.dt
        assert loaded.seed == 27 and loaded.stream_id == 3
        assert loaded.meta == batch.meta

    def test_wrong_model_rejected(self, tmp_path):
        batch = increments(LevyModel(Family.BROWNIAN), 1.0, 8, RngStream(28, 0))
        path = tmp_path / "inc.bin"
        save_batch(batch, path)
        with pytest.raises(ShapeError):
            load_batch(path, LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5))

    def dump(self, tmp_path):
        """A dump of 8 Brownian increments and its model."""
        model = LevyModel(Family.BROWNIAN)
        path = tmp_path / "inc.bin"
        save_batch(increments(model, 1.0, 8, RngStream(29, 0)), path)
        return path, model

    def test_truncated_dump_rejected(self, tmp_path):
        path, model = self.dump(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeError, match="holds 56 bytes of values"):
            load_batch(path, model)

    def test_dump_shorter_than_header_rejected(self, tmp_path):
        path, model = self.dump(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ShapeError, match="shorter than its 81-byte header"):
            load_batch(path, model)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, model = self.dump(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ShapeError, match="holds 72 bytes of values"):
            load_batch(path, model)

    def test_batch_validation(self):
        model = LevyModel(Family.BROWNIAN)
        with pytest.raises(ShapeError):
            IncrementBatch(dt=0.1, values=np.ones((4, 2)), model=model)
        with pytest.raises(ShapeError):
            IncrementBatch(dt=0.1, values=np.array([[np.inf]]), model=model)
