import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from levyem.engine import (VARIANTS, drift_const, drift_cos, drift_cos_time,
                           drift_zero, euler_ladder)
from levyem.errors import (DegenerateExactError, DomainError,
                           ExperimentAbortedError)
from levyem.fitting import fit_decay_rate, fit_powerlaw
from levyem.harness import (VERDICT_CONSISTENT, VERDICT_DEGENERATE, VERDICT_FASTER,
                            VERDICT_VIOLATES, ExperimentConfig, compare_to_theory,
                            mc_strong_error, run_experiment)
from levyem.models import Family, LevyModel, SubFamily, SubordinatorSpec
from levyem.rng import RngStream
from levyem.samplers import increments
from levyem.engine import DriftSpec
from levyem import harness
from oracles import GAUSS_INV_NORM_3D, inverse_moment_scaling


def small_config(**overrides):
    base = dict(model=LevyModel(Family.BROWNIAN), drift=drift_cos(), x0=0.0, T=1.0,
                p=2.0, n_list=(8, 16, 32, 64), n_ref=512, paths=200, seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(DomainError, match="not divisible by n=24"):
            small_config(n_list=(8, 16, 24), n_ref=512)

    def test_reference_must_dominate_ladder(self):
        with pytest.raises(DomainError, match="at least 8 x max"):
            small_config(n_list=(8, 16, 256), n_ref=512)

    @pytest.mark.parametrize("n_list", [(), (8,), (8, 16)])
    def test_n_list_too_short_to_fit(self, n_list):
        # fit_decay_rate needs three levels; refuse before the Monte Carlo runs
        with pytest.raises(DomainError, match="n_list needs at least 3 levels"):
            small_config(n_list=n_list)

    def test_p_clamped_with_warning(self):
        # the prediction's clamped p is the Monte Carlo exponent and the note
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        cfg = small_config(model=model, p=2.0)
        with pytest.warns(UserWarning):
            pred = cfg.prediction()
            report = run_experiment(cfg)
        assert pred.p == 1.5 and pred.p_clamped
        assert report.notes == ("p clamped to gamma_inf=1.5",)
        assert report.table == mc_strong_error(small_config(model=model, p=1.5))

    def test_clamping_warns_once_per_run(self):
        cfg = small_config(model=LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), p=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert [str(w.message) for w in caught] == [
            "moment order p=2.0 exceeds gamma_inf=1.5; clamping"]

    @pytest.mark.parametrize("model", [LevyModel(Family.ISOTROPIC_STABLE, alpha=0.8),
                                       LevyModel(Family.ISOTROPIC_STABLE, alpha=1.0)])
    def test_alpha_outside_the_theory_refused(self, model):
        # at alpha = 0.8 a run would fit slope 0.80 against rate 0.8 and say consistent
        with pytest.raises(DomainError, match=r"alpha must lie in \(1\.0, 2\], got"):
            small_config(model=model, p=1.0, n_list=(4, 8, 16), n_ref=128, paths=100)

    def test_block_size_is_not_a_setting(self):
        # paths run serially in blocks of the class constant chunk
        assert {f.name for f in dataclasses.fields(ExperimentConfig)}.isdisjoint(
            {"threads", "chunk"})
        for key in ("threads", "chunk"):
            with pytest.raises(TypeError):
                small_config(**{key: 64})
        assert small_config().chunk == 256

    def test_minimum_paths(self):
        with pytest.raises(DomainError):
            small_config(paths=50)

    @pytest.mark.parametrize("key,value", [
        ("T", math.nan), ("T", math.inf), ("p", math.nan), ("p", math.inf)])
    def test_bad_run_parameters_refused(self, key, value):
        # each used to run: p nan flagged every path
        with pytest.raises(DomainError):
            small_config(**{key: value})


class TestFitRate:
    def test_exact_half(self):
        n = np.array([8, 16, 32, 64, 128])
        fit = fit_decay_rate(n, n ** -0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.residual_rms < 1e-13

    def test_constant_times_inverse(self):
        n = np.array([8, 16, 32, 64])
        fit = fit_decay_rate(n, 3.0 * n ** -1.0)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_noisy_two_thirds(self):
        rng = np.random.default_rng(42)
        n = np.array([8, 16, 32, 64, 128, 256])
        means = n ** (-2.0 / 3.0) * np.exp(rng.normal(0.0, 0.05, n.size))
        fit = fit_decay_rate(n, means)
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_non_positive_mean_is_degenerate(self):
        with pytest.raises(DegenerateExactError):
            fit_decay_rate([8, 16, 32], [1.0, 0.0, 0.1])

    def test_fit_powerlaw_needs_three_points(self):
        with pytest.raises(DomainError):
            fit_powerlaw([1, 2], [1.0, 2.0])


class TestVerdicts:
    def test_examples(self):
        assert compare_to_theory(0.70, 2.0 / 3.0, 0.15) == VERDICT_CONSISTENT
        assert compare_to_theory(0.40, 2.0 / 3.0, 0.15) == VERDICT_VIOLATES
        assert compare_to_theory(1.0, 1.0 / 3.0, 0.15) == VERDICT_FASTER


class TestMcStrongError:
    def test_injection_mode_reproduces_exactly(self, monkeypatch):
        # the per-path errors are replaced by n^-1/2 on every path; a
        # power-of-two path count keeps the pairwise mean of identical
        # values exact in floating point
        monkeypatch.setattr(harness, "_error_powers", lambda config, p: np.tile(
            [n ** -0.5 for n in config.n_list], (config.paths, 1)))
        cfg = small_config(paths=256)
        table = mc_strong_error(cfg)
        for n, mean, se in zip(table.n_values, table.means, table.stderrs):
            assert mean == n ** -0.5
            assert se == 0.0
        report = run_experiment(cfg)
        assert report.slope == pytest.approx(0.5, abs=1e-12)
        assert report.fitted.residual_rms < 1e-13

    def test_zero_drift_degenerate_exact(self):
        # acceptance A4 through the report path: the coupling is exact for
        # zero and constant drift in both scheme variants
        for drift in (drift_zero(), drift_const(1.3)):
            for variant in VARIANTS:
                report = run_experiment(small_config(drift=drift, variant=variant))
                assert report.verdict == VERDICT_DEGENERATE
                assert report.slope is None
                assert all(m == 0.0 for m in report.table.means)

    @pytest.mark.parametrize("drift,variant", [(drift_cos(), "frozen"),
                                               (drift_cos_time(), "timeint")])
    def test_means_match_engine_coupling(self, drift, variant):
        # the blocked report and one kernel call per path agree bit for bit;
        # 300 paths span two blocks
        cfg = small_config(drift=drift, variant=variant, n_list=(4, 8, 16), n_ref=128,
                           paths=300)
        table = mc_strong_error(cfg)
        factors = [cfg.n_ref // n for n in cfg.n_list]
        errs = np.array([euler_ladder(drift, cfg.x0, cfg.T,
                                      increments(cfg.model, cfg.T, cfg.n_ref,
                                                 RngStream(cfg.seed, k + 1)).values[None],
                                      factors, variant)[1][:, 0]
                         for k in range(cfg.paths)])
        for col, mean in zip(errs.T, table.means):
            assert mean == math.fsum(col ** cfg.p) / cfg.paths

    def test_bit_level_determinism(self):
        a = run_experiment(small_config()).to_dict()
        b = run_experiment(small_config()).to_dict()
        assert a == b

    def test_monotone_ladder(self):
        rep = run_experiment(small_config(paths=400))
        means = np.array(rep.table.means)
        ses = np.array(rep.table.stderrs)
        for k in range(means.size - 1):
            assert means[k + 1] <= means[k] + 2 * math.hypot(ses[k], ses[k + 1])

    def test_all_paths_flagged_aborts(self):
        exploding = DriftSpec(lambda t, x: np.sign(x) * np.abs(x) ** 5 + 1.0, 1.0, 1.0)
        cfg = small_config(drift=exploding, x0=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ExperimentAbortedError):
                mc_strong_error(cfg)

    def test_block_holds_one_noise_buffer(self):
        # A2's model and ladder, one full block: the peak is the block's
        # noise buffer plus small arrays, with no path table or stacked copy
        cfg = ExperimentConfig(
            model=LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), drift=drift_cos(), x0=0.0,
            T=1.0, p=1.0, n_list=(8, 16, 32, 64, 128, 256), n_ref=2048,
            paths=256, seed=20240102)
        # the first generator imports numpy.random; build one outside the
        # window, so the peak is the block's alone
        RngStream(cfg.seed).generator()
        tracemalloc.start()
        try:
            mc_strong_error(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cfg.paths * cfg.n_ref * 8

    def test_one_bit_generator_per_block(self, monkeypatch):
        # each path re-keys its block's Philox instead of building its own;
        # 300 paths span two blocks
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        cfg = small_config(n_list=(4, 8, 16), n_ref=128, paths=300)
        mc_strong_error(cfg)
        assert 0 < len(built) <= math.ceil(cfg.paths / cfg.chunk)

    def test_report_serialisation_round_trip(self):
        rep = run_experiment(small_config())
        data = json.loads(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
        assert data["verdict"] == rep.verdict
        assert data["fit"]["slope"] == rep.slope
        csv_text = rep.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,mean,stderr,predicted_line"
        assert len(lines) == 1 + len(rep.table.n_values)

    def test_scaling_consistency_under_time_rescaling(self):
        # self-similar driver: doubling the horizon with the matched drift
        # rescaling does not move the fitted rate beyond joint noise bands
        alpha = 1.5
        lam = 2.0  # time dilation factor
        factor = lam ** (1.0 - 1.0 / alpha)
        scale = lam ** (1.0 / alpha)
        drift1 = drift_cos()
        drift2 = DriftSpec(lambda t, x: factor * np.cos(x / scale), 1.0, 1.0)
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=alpha)
        rep1 = run_experiment(small_config(model=model, drift=drift1, p=1.0, paths=600))
        rep2 = run_experiment(small_config(model=model, drift=drift2, p=1.0, T=lam, paths=600))
        band = rep1.fitted.half_width + rep2.fitted.half_width + 0.1
        assert abs(rep1.slope - rep2.slope) <= band


class TestInverseMoment:
    def test_degenerate_brownian_time(self):
        sub = SubordinatorSpec(SubFamily.STABLE, 1.0)
        res = inverse_moment_scaling(sub, 1, (0.05, 0.1, 0.2, 0.4, 0.8), 20_000, 3)
        assert res.slope == pytest.approx(-0.5, abs=1e-9)
        for t, est in zip(res.t_values, res.estimates):
            assert est == pytest.approx(t ** -0.5 * res.norm_constant, rel=1e-12)

    def test_three_dimensional_constant(self):
        res = inverse_moment_scaling(SubordinatorSpec(SubFamily.STABLE, 0.75), 1,
                                     (0.1, 0.2, 0.4), 200_000, 5)
        assert GAUSS_INV_NORM_3D == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)
        assert abs(res.norm_constant - GAUSS_INV_NORM_3D) <= 3 * res.norm_stderr

    def test_stable_rho_three_quarters(self):
        res = inverse_moment_scaling(SubordinatorSpec(SubFamily.STABLE, 0.75), 1,
                                     (0.01, 0.03, 0.1, 0.3, 1.0), 200_000, 11)
        assert abs(res.slope - (-1.0 / 1.5)) <= 0.05

    def test_estimates_reproduce_recorded_draws(self):
        # recorded when the diagnostic still picked the subordinator sampler itself
        for sub, expected in (
                (SubordinatorSpec(SubFamily.STABLE, 0.75),
                 (3.758615028662299, 1.7943718811032883, 0.8646716948070201)),
                (SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 2.0),
                 (4.166210944695914, 2.188448698387108, 1.2042357925457137))):
            res = inverse_moment_scaling(sub, 1, (0.1, 0.3, 0.9), 2000, 17)
            assert res.estimates == expected

    def test_t_domain(self):
        with pytest.raises(DomainError):
            inverse_moment_scaling(SubordinatorSpec(SubFamily.STABLE, 0.75), 1, (0.5, 2.0),
                                   1000, 0)
