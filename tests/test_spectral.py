import math
import tracemalloc

import numpy as np
import pytest

from levyem import spectral
from levyem.engine import DriftSpec, drift_cos, drift_cos_time, drift_rough
from levyem.errors import DomainError, ResolutionError, ShapeError, StiffnessError
from levyem.models import (Family, LevyModel, SubFamily, SubordinatorSpec, balance_check,
                           char_exponent_radial, kappa_exponent)
from levyem.spectral import (SpaceGrid, density_fft, grad_l1_norm,
                             gradient_scaling_exponent, picard_solve,
                             second_l1_norm, semigroup_apply,
                             suggest_grid, tail_mass_estimate)
from oracles import holder_seminorm, resolvent_source

STABLE15 = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)


def mode(grid, k):
    return np.cos(grid.dual[k] * grid.nodes)


def _expression_density(model, t, grid):
    """The three inversions as whole-array expressions, each with its own
    temporaries: the reference density_fft's in-place work must match."""
    phat = np.exp(-t * spectral._psi_on_grid(model, grid))
    xi = grid.dual
    phase = np.exp(1j * grid.half_width * xi)
    dxi = np.pi / grid.half_width

    def invert(fhat):
        return (dxi / (2.0 * np.pi)) * np.fft.fft(fhat * phase).real

    vals = invert(phat.astype(complex))
    return (np.where(vals < 0.0, 0.0, vals), invert((-1j * xi) * phat),
            invert((-(xi ** 2)) * phat.astype(complex)))


class TestDensity:
    @pytest.mark.parametrize("model", [STABLE15, LevyModel(Family.BROWNIAN),
                                       LevyModel(Family.TEMPERED_STABLE, alpha=1.3, m=2.0)],
                             ids=["stable", "brownian", "tempered"])
    def test_in_place_inversions_match_whole_array_expressions(self, model):
        times = (0.0512, 0.3962, 1.6254)
        grid = suggest_grid(model, times[0], times[-1], tail_target=3e-6, max_points=2 ** 16)
        for t in times:
            tab = density_fft(model, t, grid)
            for got, want in zip((tab.values, tab.deriv1, tab.deriv2),
                                 _expression_density(model, t, grid)):
                assert got.tobytes() == want.tobytes()  # signed zeros too

    def test_brownian_half_is_standard_normal(self):
        # CF convention exp(-t |xi|^2) makes p_{0.5} the unit normal
        grid = SpaceGrid(40.0, 2048)
        tab = density_fft(LevyModel(Family.BROWNIAN), 0.5, grid)
        centre = tab.values[np.argmin(np.abs(grid.nodes))]
        assert centre == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-9)
        assert tab.mass == pytest.approx(1.0, abs=1e-6)

    def test_cauchy_centre(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.0)
        grid = SpaceGrid(4096.0, 2 ** 17)
        tab = density_fft(model, 1.0, grid)
        centre = tab.values[np.argmin(np.abs(grid.nodes))]
        assert centre == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_unit_mass_across_catalog(self):
        for model in (STABLE15, LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
                      LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)):
            grid = suggest_grid(model, 0.2, 0.5, tail_target=1e-6,
                                max_points=2 ** 18)
            tab = density_fft(model, 0.3, grid)
            assert abs(tab.mass - 1.0) <= 1e-6
            assert tab.values.min() >= 0.0

    def test_underresolved_grid_raises(self):
        with pytest.raises(ResolutionError):
            density_fft(STABLE15, 0.01, SpaceGrid(40.0, 64))

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_time_outside_range_refused(self, t):
        # NaN must fail the check: let through, it passes every later check
        # and gives a table of mass NaN
        with pytest.raises(DomainError, match="t must be finite and > 0"):
            density_fft(STABLE15, t, SpaceGrid(40.0, 2048))

    def test_nan_density_fails_the_mass_check(self, monkeypatch):
        # one NaN in psi makes every value NaN, the mass included
        grid = SpaceGrid(40.0, 2048)
        psi = spectral._psi_on_grid(STABLE15, grid).copy()
        psi[1] = math.nan
        monkeypatch.setattr(spectral, "_psi_on_grid", lambda model, grid: psi)
        with pytest.raises(ResolutionError, match="density mass nan deviates"):
            density_fft(STABLE15, 0.5, grid)

    # 5e-324 gives a zero spacing h, which fftfreq divides by; 1e-310 an
    # infinite top frequency pi / h, which ends as a misleading StiffnessError
    @pytest.mark.parametrize("half_width", [math.nan, math.inf, 0.0, 5e-324, 1e-310])
    def test_grid_half_width_outside_range_refused(self, half_width):
        with pytest.raises(DomainError, match="half_width must be finite and > 0"):
            SpaceGrid(half_width, 64)

    @pytest.mark.parametrize("t_min,t_max,name", [(math.nan, 1.0, "t_min"),
                                                  (0.1, math.nan, "t_max"),
                                                  (0.1, math.inf, "t_max")])
    def test_suggest_grid_refuses_bad_times(self, t_min, t_max, name):
        # a NaN t_min would otherwise end as "grows too slowly to invert"
        with pytest.raises(DomainError, match=f"{name} must be finite and > 0, got"):
            suggest_grid(STABLE15, t_min, t_max)

    def test_tail_target_met_for_light_tails(self):
        model = LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0)
        grid = suggest_grid(model, 0.1, 0.4)
        assert tail_mass_estimate(model, 0.4, grid.half_width) < 1e-8

    def test_rho_one_subordinated_bm_tail_is_brownian(self):
        # a stable subordinator of index 1 time-changes BM into BM itself
        sub_bm = LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 1.0))
        bm = LevyModel(Family.BROWNIAN)
        estimate = tail_mass_estimate(sub_bm, 1.6, 8.0)
        assert estimate > 0.0
        assert estimate == tail_mass_estimate(bm, 1.6, 8.0)
        assert suggest_grid(sub_bm, 0.05, 1.6, tail_target=3e-6) == \
            suggest_grid(bm, 0.05, 1.6, tail_target=3e-6)


def _savetxt_bytes(tmp_path, header, data):
    """What np.savetxt writes for ``data`` with the CSV settings levyem uses."""
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, data, delimiter=",", comments="", newline="\n", header=header)
    return path.read_bytes()


class TestWriteCsv:
    """The one CSV writer gives np.savetxt's bytes exactly."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.8e308,
               -1.8e308, 1.0 / 3.0, -2.5e-17]

    @pytest.mark.parametrize("shape", [(11, 1), (1, 11), (1, 1), (4, 3), (0, 3)],
                             ids=["one-column", "single-row", "one-value",
                                  "three-columns", "no-rows"])
    def test_bytes_match_savetxt(self, shape, tmp_path):
        values = np.resize(np.array(self.SPECIAL), shape[0] * shape[1]).reshape(shape)
        header = ",".join(f"c{i}" for i in range(shape[1]))
        path = tmp_path / "written.csv"
        spectral.write_csv(path, header, values)
        assert path.read_bytes() == _savetxt_bytes(tmp_path, header, values)

    @pytest.mark.parametrize("n_rows", [4096, 4097, 8193])
    def test_bytes_match_savetxt_across_row_runs(self, n_rows, tmp_path):
        values = np.random.default_rng(n_rows).standard_normal((n_rows, 3)) \
            * np.logspace(-300, 300, n_rows)[:, None]
        values[::7, 1] = -0.0
        path = tmp_path / "written.csv"
        spectral.write_csv(path, "x,u,grad_u", values)
        assert path.read_bytes() == _savetxt_bytes(tmp_path, "x,u,grad_u", values)

    @pytest.mark.parametrize("n_points", [2 ** 12, 2 ** 14])
    def test_density_table_matches_savetxt(self, n_points, tmp_path):
        grid = SpaceGrid(60.0, n_points)
        table = density_fft(STABLE15, 0.1, grid)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        stride = max(1, n_points // 4096)
        data = np.column_stack([col[::stride] for col in (
            grid.nodes, table.values, table.deriv1, table.deriv2)])
        assert path.read_bytes() == _savetxt_bytes(
            tmp_path, "x,value,derivative,second_derivative", data)


class TestGradientNorms:
    def test_gaussian_grad_l1_is_twice_peak(self):
        # unimodal symmetric density: int |p'| = 2 p(0)
        grid = SpaceGrid(40.0, 2 ** 14)
        tab = density_fft(LevyModel(Family.BROWNIAN), 0.5, grid)
        assert grad_l1_norm(tab) == pytest.approx(2.0 / math.sqrt(2.0 * math.pi),
                                                  rel=1e-3)

    def test_stable_time_scaling_exact(self):
        # |p'| tails decay fast, so a modest box with fine spacing beats the
        # wide unit-mass grids here
        grid = SpaceGrid(64.0, 2 ** 15)
        base = grad_l1_norm(density_fft(STABLE15, 1.0, grid))
        for t in (0.01, 0.1, 0.5):
            val = grad_l1_norm(density_fft(STABLE15, t, grid))
            assert val == pytest.approx(t ** (-1.0 / 1.5) * base, rel=1e-3)

    def test_reflection_invariance(self):
        grid = SpaceGrid(40.0, 2048)
        tab = density_fft(LevyModel(Family.BROWNIAN), 0.5, grid)
        flipped = np.abs(tab.deriv1[::-1])
        direct = np.abs(tab.deriv1)
        assert float(np.trapezoid(flipped, dx=grid.h)) == pytest.approx(
            grad_l1_norm(tab), abs=1e-15)

    def test_self_similarity_invariant(self):
        grid = SpaceGrid(64.0, 2 ** 15)
        products = [grad_l1_norm(density_fft(STABLE15, t, grid)) * t ** (1.0 / 1.5)
                    for t in np.geomspace(0.01, 1.0, 5)]
        assert max(products) / min(products) - 1.0 < 1e-3


class TestGradientScaling:
    def test_brownian_slope(self):
        res = gradient_scaling_exponent(LevyModel(Family.BROWNIAN), np.geomspace(0.05, 0.8, 6))
        assert res.slope == pytest.approx(-0.5, abs=0.01)

    def test_stable_slope(self):
        res = gradient_scaling_exponent(STABLE15, np.geomspace(0.05, 0.8, 6))
        assert res.slope == pytest.approx(-1.0 / 1.5, abs=0.01)
        assert res.propagation_ok

    def test_relativistic_small_time_window(self):
        # at high frequency the exponent is comparable to the stable one, so
        # the small-t gradient scaling approaches -1/alpha
        model = LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0)
        res = gradient_scaling_exponent(model, np.geomspace(1e-3, 1e-2, 5))
        assert abs(res.slope - (-1.0 / 1.5)) <= 0.1

    def test_needs_four_points(self):
        with pytest.raises(DomainError):
            gradient_scaling_exponent(STABLE15, (0.1, 0.2, 0.4))

    def test_repeated_times_count_once(self, monkeypatch):
        # four listed times but two distinct ones: refused before any table
        def no_table(*args, **kwargs):
            raise AssertionError("a density table was built")

        monkeypatch.setattr(spectral, "density_fft", no_table)
        with pytest.raises(DomainError,
                           match="need at least 4 distinct positive t values, got 2"):
            gradient_scaling_exponent(STABLE15, (0.1, 0.1, 0.2, 0.2), on_table=no_table)

    def test_repeated_time_fitted_once(self):
        # a repeated time adds no information, so it neither weights the fit
        # nor narrows its half-width
        grid = SpaceGrid(60.0, 2 ** 13)
        once = gradient_scaling_exponent(STABLE15, (0.1, 0.2, 0.4, 0.8), grid)
        twice = gradient_scaling_exponent(STABLE15, (0.1, 0.1, 0.2, 0.4, 0.8), grid)
        assert twice.t_values == once.t_values == (0.1, 0.2, 0.4, 0.8)
        assert (twice.slope, twice.half_width) == (once.slope, once.half_width)

    def test_nan_time_refused(self):
        # a NaN among the times would otherwise end as a density-mass ResolutionError
        with pytest.raises(DomainError, match="t values must be finite and > 0, got nan"):
            gradient_scaling_exponent(STABLE15, (0.1, 0.2, 0.4, math.nan))

    # five jittered times, none twice another: ten distinct tables
    JITTERED = (0.0512, 0.0981, 0.2043, 0.3962, 0.8127)

    def test_on_table_sees_each_time_once_in_ascending_order(self):
        grid = SpaceGrid(60.0, 2 ** 13)
        seen = []
        res = gradient_scaling_exponent(STABLE15, self.JITTERED[::-1] + (0.2043,), grid,
                                        on_table=seen.append)
        assert [tab.t for tab in seen] == sorted(self.JITTERED)
        norms = dict(zip(res.t_values, res.grad_norms))
        for tab in seen:
            ref = density_fft(STABLE15, tab.t, grid)
            for name in ("values", "deriv1", "deriv2"):
                assert np.array_equal(getattr(tab, name), getattr(ref, name))
            assert grad_l1_norm(tab) == norms[tab.t]

    def test_one_table_alive_at_a_time(self):
        # the peak is the table being built, its complex work array and phase
        # and the cached psi, not the ten tables at once
        grid = SpaceGrid(160.0, 2 ** 16)
        table_bytes = 3 * 8 * grid.n_points  # values, deriv1, deriv2
        tracemalloc.start()
        try:
            gradient_scaling_exponent(STABLE15, self.JITTERED, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * table_bytes


class TestSemigroup:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
    def test_time_outside_range_refused(self, t):
        # a NaN time would otherwise return all NaN
        grid = SpaceGrid(16 * math.pi, 1024)
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            semigroup_apply(np.ones(grid.n_points), t, STABLE15, grid)

    def test_preserves_constants(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        out = semigroup_apply(np.ones(grid.n_points), 0.7, STABLE15, grid)
        assert np.max(np.abs(out - 1.0)) <= 1e-8

    def test_fourier_eigenfunction(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        g = mode(grid, 5)
        out = semigroup_apply(g, 0.3, STABLE15, grid)
        lam = math.exp(-0.3 * char_exponent_radial(STABLE15, grid.dual[5]))
        assert np.max(np.abs(out - lam * g)) <= 1e-12

    def test_semigroup_property(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        gen = np.random.default_rng(0)
        g = np.exp(-0.5 * grid.nodes ** 2) * np.cos(grid.nodes) + 0.1 * gen.standard_normal(grid.n_points)
        one = semigroup_apply(semigroup_apply(g, 0.2, STABLE15, grid), 0.3, STABLE15, grid)
        two = semigroup_apply(g, 0.5, STABLE15, grid)
        assert np.max(np.abs(one - two)) <= 1e-8

    def test_small_time_continuity_against_direct_convolution(self):
        grid = SpaceGrid(16 * math.pi, 2048)
        # smoothed indicator of [-2, 2]
        g = 0.5 * (np.tanh(4.0 * (grid.nodes + 2.0)) - np.tanh(4.0 * (grid.nodes - 2.0)))
        t = 1e-4
        out = semigroup_apply(g, t, STABLE15, grid)
        assert float(np.max(np.abs(out - g))) < 0.01  # sup-norm continuity as t -> 0

        # direct quadrature oracle at a few interior nodes: E g(x + L_t) by
        # convolving with the table of p_t
        tab = density_fft(STABLE15, t, SpaceGrid(16 * math.pi, 2 ** 18))
        y, py, hy = tab.grid.nodes, tab.values, tab.grid.h
        for x in (-2.0, 0.0, 1.5):
            j = int(round((x + grid.half_width) / grid.h))
            xg = grid.nodes[j]
            gx = 0.5 * (np.tanh(4.0 * (xg + y + 2.0)) - np.tanh(4.0 * (xg + y - 2.0)))
            oracle = float(np.trapezoid(gx * py, dx=hy))
            assert out[j] == pytest.approx(oracle, abs=5e-6)


class TestResolventSource:
    def test_constant_source_integrates_to_t(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        u = resolvent_source(np.ones(grid.n_points), 0.7, STABLE15, grid)
        assert np.max(np.abs(u - 0.7)) <= 1e-12

    def test_single_mode_closed_form(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        g = mode(grid, 7)
        t = 0.6
        psi0 = char_exponent_radial(STABLE15, grid.dual[7])
        u = resolvent_source(g, t, STABLE15, grid)
        assert np.max(np.abs(u - (1.0 - math.exp(-t * psi0)) / psi0 * g)) <= 1e-10

    def test_time_dependent_source(self):
        # g(s, x) = e^{-s} cos(xi0 x): per dual mode the integral has the
        # closed form (e^{-t psi} - e^{-t}) / (1 - psi) ... computed directly
        grid = SpaceGrid(16 * math.pi, 1024)
        k = 6
        xi0 = grid.dual[k]
        psi0 = char_exponent_radial(STABLE15, xi0)
        t = 0.8

        def g(s):
            return math.exp(-s) * mode(grid, k)

        u = resolvent_source(g, t, STABLE15, grid, n_nodes=512)
        target = (math.exp(-t) - math.exp(-t * psi0)) / (psi0 - 1.0)
        assert np.max(np.abs(u - target * mode(grid, k))) <= 1e-6

    def test_contractivity_bound(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        gen = np.random.default_rng(1)
        g = np.cos(grid.nodes) + 0.3 * np.cos(3 * grid.nodes + 1.0)
        t = 0.9
        u = resolvent_source(g, t, STABLE15, grid)
        assert np.max(np.abs(u)) <= t * np.max(np.abs(g)) * (1.0 + 1e-12)

    def test_zero_horizon(self):
        grid = SpaceGrid(16 * math.pi, 512)
        u = resolvent_source(np.ones(grid.n_points), 0.0, STABLE15, grid)
        assert np.array_equal(u, np.zeros(grid.n_points))


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        assert holder_seminorm(np.full(512, 3.7), 0.5, 0.01) == 0.0

    def test_linear_slope_one(self):
        x = np.linspace(-1.0, 1.0, 257)
        h = x[1] - x[0]
        assert holder_seminorm(x, 1.0, h) == pytest.approx(1.0, rel=1e-12)

    def test_square_root_cusp(self):
        x = np.linspace(-1.0, 1.0, 513)
        h = x[1] - x[0]
        vals = np.sqrt(np.abs(x))
        assert holder_seminorm(vals, 0.5, h) == pytest.approx(1.0, abs=1e-2)


class TestPicard:
    def test_zero_drift_reduces_to_resolvent_in_reversed_time(self):
        grid = SpaceGrid(16 * math.pi, 512)
        g = mode(grid, 3)
        T = 0.4
        zero = DriftSpec(lambda t, x: np.zeros_like(x), 1.0, 1.0)
        sol = picard_solve(zero, g, T, STABLE15, grid, n_time=64)
        assert len(sol.diffs) == 1  # recursion closes after a single correction
        for j in (0, 13, 50):
            t = sol.times[j]
            ref = resolvent_source(g, T - t, STABLE15, grid)
            assert np.max(np.abs(sol.u[j] - ref)) <= 1e-9

    def test_zero_source_is_zero(self):
        grid = SpaceGrid(16 * math.pi, 512)
        sol = picard_solve(drift_cos(), np.zeros(grid.n_points), 0.4, STABLE15,
                           grid, n_time=32)
        assert sol.diffs == ()
        assert np.array_equal(sol.u, np.zeros_like(sol.u))

    def test_terminal_condition_exact(self):
        grid = SpaceGrid(16 * math.pi, 512)
        sol = picard_solve(drift_cos(), np.cos(grid.nodes), 0.3, STABLE15, grid,
                           n_time=64)
        assert np.array_equal(sol.u[-1], np.zeros(grid.n_points))

    def test_contraction_below_half_once_certified(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        g = np.cos(grid.nodes)
        sol = picard_solve(drift_cos(), g, 0.25, STABLE15, grid, n_time=128,
                           target_ratio=0.5)
        assert sol.converged and sol.certified
        assert len(sol.ratios) >= 5
        assert all(r <= 0.5 for r in sol.ratios)

    def test_certificate_shrinks_with_horizon(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        g = np.cos(grid.nodes)
        cs = []
        for T in (0.3, 0.15, 0.075):
            sol = picard_solve(drift_cos(), g, T, STABLE15, grid, n_time=64)
            cs.append(sol.certificate["c_of_T"])
        assert cs[0] > cs[1] > cs[2]

    @staticmethod
    def _assert_same_solve(sol, ref):
        assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.grad_u, ref.grad_u)
        assert (sol.diffs, sol.horizon, sol.halvings) == (ref.diffs, ref.horizon, ref.halvings)
        assert sol.residual == ref.residual and sol.certificate == ref.certificate

    @pytest.mark.parametrize("drift", [drift_cos(), drift_rough(0.5)], ids=["cos", "rough_sin"])
    def test_drift_source_of_a_time_free_drift_is_its_array(self, drift):
        grid = SpaceGrid(16 * math.pi, 512)
        sol = picard_solve(drift, None, 0.25, STABLE15, grid, n_time=32)
        ref = picard_solve(drift, drift(0.0, grid.nodes), 0.25, STABLE15, grid, n_time=32)
        self._assert_same_solve(sol, ref)

    def test_drift_source_follows_time(self):
        # g = b(t, .), not b(0, .): the frozen source solves another equation
        grid = SpaceGrid(16 * math.pi, 512)
        drift = drift_cos_time()
        sol = picard_solve(drift, None, 0.25, STABLE15, grid, n_time=32)
        ref = picard_solve(drift, lambda t: drift(t, grid.nodes), 0.25, STABLE15, grid,
                           n_time=32)
        self._assert_same_solve(sol, ref)
        frozen = picard_solve(drift, drift(0.0, grid.nodes), 0.25, STABLE15, grid, n_time=32)
        assert np.max(np.abs(sol.u[0] - frozen.u[0])) > 1e-3

    @pytest.mark.parametrize("scale,halvings", [(1.0, 0), (10.0, 1)])
    def test_drift_source_evaluates_the_drift_once_per_time_row(self, scale, halvings):
        grid = SpaceGrid(16 * math.pi, 256)
        times = []

        def fn(t, x):
            times.append(t)
            return scale * np.cos(x + t)

        sol = picard_solve(DriftSpec(fn, 1.0, 1.0), None, 0.5, STABLE15, grid, n_time=16)
        assert sol.halvings == halvings
        assert len(times) == 17 * (halvings + 1)

    def test_unbalanced_pair_is_refused(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.05)
        rough = drift_rough(0.02)
        assert kappa_exponent(model.gradient_index, model.moments.gamma0,
                              rough.beta) >= 1.0
        grid = SpaceGrid(16 * math.pi, 512)
        with pytest.raises(DomainError, match="violates the balance condition"):
            picard_solve(rough, np.cos(grid.nodes), 0.2, model, grid)

    def test_stiffness_error_when_drift_overwhelms(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_HALVINGS", 2)
        grid = SpaceGrid(16 * math.pi, 256)
        huge = DriftSpec(lambda t, x: 500.0 * np.cos(x), 1.0, 1.0)
        with pytest.raises(StiffnessError):
            picard_solve(huge, np.cos(grid.nodes), 4.0, STABLE15, grid, n_time=32)

    # (n_time + 1) x points past what an array can hold is refused before any
    # table is built, not left to a MemoryError
    @pytest.mark.parametrize("kwargs", [{"n_time": 0}, {"n_time": -3},
                                        {"n_time": 2 ** 52}])
    def test_bad_n_time_rejected(self, kwargs):
        grid = SpaceGrid(16 * math.pi, 256)
        with pytest.raises(DomainError):
            picard_solve(drift_cos(), np.cos(grid.nodes), 0.25, STABLE15, grid,
                         **kwargs)

    @pytest.mark.parametrize("name,value", [
        ("T", math.nan), ("T", math.inf), ("tol", 0.0), ("tol", -1e-8), ("tol", math.nan),
        ("target_ratio", 0.0), ("target_ratio", 1.0), ("target_ratio", math.nan)])
    def test_horizon_tol_or_target_ratio_outside_range_refused(self, name, value):
        # NaN must fail these checks too: let through, a NaN horizon or a zero
        # tol ends as a StiffnessError that blames the contraction
        grid = SpaceGrid(16 * math.pi, 256)
        kwargs = {"T": 0.25, name: value}
        with pytest.raises(DomainError, match=f"^{name} must"):
            picard_solve(drift_cos(), np.cos(grid.nodes), model=STABLE15, grid=grid,
                         **kwargs)


def _row_holder(values, theta, spacing, max_sep=2.0):
    """Per-row Hoelder quotient, as the certificate once computed it."""
    best = 0.0
    step = 1
    while step * spacing <= max_sep and step < values.size:
        sep = step * spacing
        q = float(np.abs(values[step:] - values[:-step]).max()) / sep ** theta
        if q > best:
            best = q
        step *= 2
    return best


def _whole_table_picard(drift, g, T, model, grid, n_time, tol=1e-8,
                        max_iter=60, max_halvings=5, target_ratio=0.95):
    """The Picard iteration on whole (n_time + 1) x N tables, and its
    certificate from per-row Hoelder quotients: the reference the row-block
    sweep must reproduce bit for bit."""
    psi = spectral._psi_on_grid(model, grid)
    horizon, halvings = float(T), 0
    while True:
        times = horizon * np.arange(n_time + 1) / n_time
        delta = horizon / n_time
        g_tab = np.stack([g(float(t)) if callable(g) else g for t in times])
        b_tab = np.stack([drift(float(t), grid.nodes) for t in times])
        g_norm = float(np.max(np.abs(g_tab)))
        z = delta * psi
        decay = np.exp(-z)
        w_lo = delta * spectral._phi1(z)
        w_hi_minus_lo = delta * spectral._phi2(z)
        u = np.zeros((n_time + 1, grid.n_points))
        grad = np.zeros_like(u)
        diffs = []
        converged = False
        for _ in range(max_iter):
            hhat = np.fft.fft(b_tab * grad + g_tab, axis=1)
            uhat = np.zeros((n_time + 1, grid.n_points), dtype=complex)
            for j in range(n_time - 1, -1, -1):
                local = hhat[j] * w_lo + (hhat[j + 1] - hhat[j]) * w_hi_minus_lo
                uhat[j] = decay * uhat[j + 1] + local
            u_new = np.fft.ifft(uhat, axis=1).real
            d = float(np.max(np.abs(u_new - u)))
            u = u_new
            grad = np.fft.ifft(1j * grid.dual * uhat, axis=1).real
            if d <= tol * g_norm:
                converged = True
                break
            diffs.append(d)
            if d > 1e9 * g_norm:
                break
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        if converged and (not ratios or max(ratios[-2:]) < target_ratio):
            break
        assert halvings < max_halvings
        horizon *= 0.5
        halvings += 1
    grad = np.fft.ifft(1j * grid.dual * np.fft.fft(u, axis=1), axis=1).real
    h = grid.h
    sem_beta = max(_row_holder(row, drift.beta, h) for row in grad)
    sem_g0 = max(_row_holder(row, min(1.0, model.moments.gamma0 / 2.0), h)
                 for row in grad)
    sup_u = float(np.max(np.abs(u)))
    sup_grad = float(np.max(np.abs(grad)))
    g_holder = float(np.max(np.abs(g_tab))) + max(
        _row_holder(row, drift.beta, h) for row in g_tab)
    numerator = sup_u + (sup_grad + sem_beta) + (sup_grad + sem_g0)
    cert = {"sup_u": sup_u, "sup_grad": sup_grad, "grad_seminorm_beta": sem_beta,
            "grad_seminorm_gamma0_half": sem_g0, "source_holder_norm": g_holder,
            "c_of_T": numerator / g_holder}
    return u, grad, tuple(diffs), horizon, halvings, cert


class TestPicardSweep:
    """The row-block sweep against the whole-table iteration, exactly, with
    blocks of one row, of three rows (partial blocks and block edges), of
    exactly every row and of more rows than the solve has."""

    @staticmethod
    def _assert_matches_oracle(drift, g, T, grid, n_time, **kwargs):
        sol = picard_solve(drift, g, T, STABLE15, grid, n_time=n_time, **kwargs)
        u, grad, diffs, horizon, halvings, cert = _whole_table_picard(
            drift, g, T, STABLE15, grid, n_time, **kwargs)
        assert np.array_equal(sol.u, u)
        assert np.array_equal(sol.grad_u, grad)
        assert sol.diffs == diffs
        assert sol.horizon == horizon
        assert sol.halvings == halvings
        assert sol.certificate == cert
        return sol

    @pytest.mark.parametrize("rows", [1, 3, 100, "all"])
    @pytest.mark.parametrize("n_time", [1, 2, 37])
    def test_matches_whole_table_iteration(self, n_time, rows, monkeypatch):
        # "all" is a block of exactly every row: the buffers hold the whole
        # solve, and no carry crosses a block edge; one row carries every row
        grid = SpaceGrid(16 * math.pi, 512)
        rows = n_time + 1 if rows == "all" else rows
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * grid.n_points * rows)

        def src(t):
            return np.cos(grid.nodes + 2.0 * t)

        sol = self._assert_matches_oracle(drift_cos_time(), src, 0.25, grid, n_time)
        assert sol.converged and len(sol.diffs) >= 2

    @pytest.mark.parametrize("rows", [1, 3, 100, "all"])
    def test_matches_whole_table_iteration_through_halvings(self, rows, monkeypatch):
        grid = SpaceGrid(16 * math.pi, 512)
        rows = 38 if rows == "all" else rows
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * grid.n_points * rows)
        strong = DriftSpec(lambda t, x: 5.0 * np.cos(x + t), 1.0, 1.0)
        sol = self._assert_matches_oracle(strong, np.cos(grid.nodes), 0.5, grid, 37,
                                          target_ratio=0.5)
        assert sol.halvings == 2 and sol.converged

    @pytest.mark.parametrize("drift,view", [(drift_cos(), True), (drift_cos_time(), False)],
                             ids=["cos", "cos_time"])
    def test_time_free_drift_table_is_a_view(self, drift, view, monkeypatch):
        # cos gives one broadcast row, cos_time a full table; both solve to
        # the whole-table iteration's bits
        grid = SpaceGrid(16 * math.pi, 512)
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * grid.n_points * 3)
        times = np.linspace(0.0, 0.25, 38)
        tab = spectral._time_table(lambda t: drift(t, grid.nodes), times, grid.n_points)
        assert np.array_equal(tab, np.stack([drift(float(t), grid.nodes) for t in times]))
        assert (tab.strides[0] == 0) == view and tab.flags.writeable != view
        sol = self._assert_matches_oracle(drift, np.cos(grid.nodes), 0.25, grid, 37)
        assert sol.converged and len(sol.diffs) >= 2

    @staticmethod
    def _peak_tables(fn, n_time, n_points):
        """The tracemalloc peak of fn(), in (n_time + 1) x n_points float tables."""
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / ((n_time + 1) * n_points * 8)

    def test_peak_is_u_and_its_gradient(self):
        # a time-free drift and an array source are views, no sup-norm takes
        # an absolute value of a whole table, and the residual walks row blocks
        grid = SpaceGrid(16 * math.pi, 4096)
        n_time = 512
        peak = self._peak_tables(
            lambda: picard_solve(drift_cos(), np.cos(grid.nodes), 0.25, STABLE15, grid,
                                 n_time=n_time),
            n_time, grid.n_points)
        assert peak <= 2.3

    def test_callable_source_adds_one_table(self):
        # the source table is filled a row at a time, never stacked from a list
        grid = SpaceGrid(16 * math.pi, 4096)
        n_time = 512
        nodes = grid.nodes
        peak = self._peak_tables(
            lambda: picard_solve(drift_cos(), lambda t: np.cos(nodes + 2.0 * t), 0.25,
                                 STABLE15, grid, n_time=n_time),
            n_time, grid.n_points)
        assert peak <= 3.3

    def test_full_time_table_peaks_at_one_table(self):
        n_time, n_points = 512, 4096
        nodes = np.linspace(-1.0, 1.0, n_points)
        times = np.linspace(0.0, 0.25, n_time + 1)
        peak = self._peak_tables(
            lambda: spectral._time_table(lambda t: np.cos(nodes + 2.0 * t), times, n_points),
            n_time, n_points)
        assert peak <= 1.1

    def test_array_source_table_is_a_view_of_g(self):
        grid = SpaceGrid(16 * math.pi, 512)
        g = np.cos(grid.nodes)
        tab = spectral._time_table(lambda t: g, np.linspace(0.0, 0.25, 9), grid.n_points)
        assert tab.shape == (9, grid.n_points)
        assert np.shares_memory(tab, g) and not tab.flags.writeable

    @pytest.mark.parametrize("g", [np.ones(3), lambda t: 1.0], ids=["array", "callable"])
    def test_source_off_the_grid_refused(self, g):
        grid = SpaceGrid(16 * math.pi, 256)
        with pytest.raises(ShapeError, match="sampled on the grid"):
            picard_solve(drift_cos(), g, 0.25, STABLE15, grid, n_time=8)


class TestKolmogorovResidual:
    def test_zero_everything(self):
        # a zero source converges on its first sweep
        grid = SpaceGrid(16 * math.pi, 512)
        zero = DriftSpec(lambda t, x: np.zeros_like(x), 1.0, 1.0)
        sol = picard_solve(zero, np.zeros(grid.n_points), 0.3, STABLE15, grid, n_time=32)
        assert sol.converged and sol.certified
        assert sol.diffs == () and sol.halvings == 0 and sol.residual == 0.0
        assert not np.any(sol.u) and not np.any(sol.grad_u)

    def test_single_mode_zero_drift(self):
        grid = SpaceGrid(16 * math.pi, 1024)
        g = mode(grid, 4)
        zero = DriftSpec(lambda t, x: np.zeros_like(x), 1.0, 1.0)
        sol = picard_solve(zero, g, 0.25, STABLE15, grid, n_time=128)
        assert sol.residual <= 1e-4
        assert len(sol.diffs) == 1  # the second sweep reproduces the first exactly

    def test_full_solve_residual_and_refinement(self):
        g_coarse = SpaceGrid(16 * math.pi, 1024)
        src = np.cos(g_coarse.nodes)
        sol = picard_solve(drift_cos(), src, 0.25, STABLE15, g_coarse, n_time=128)
        res_coarse = sol.residual
        assert res_coarse <= 5e-3

        g_fine = SpaceGrid(16 * math.pi, 2048)
        src_f = np.cos(g_fine.nodes)
        sol_f = picard_solve(drift_cos(), src_f, 0.25, STABLE15, g_fine, n_time=256)
        assert sol_f.residual <= res_coarse / 2.0

    @pytest.mark.parametrize("n_time", [1, 2, 64])
    def test_matches_row_by_row_oracle(self, n_time, monkeypatch):
        # the residual of each interior time row, computed one row at a time,
        # for a callable and an array source, with blocks of one row, of three
        # rows, of exactly every row and of more rows than the solve has
        grid = SpaceGrid(16 * math.pi, 512)
        drift = drift_cos_time()
        model = STABLE15
        psi = char_exponent_radial(model, np.abs(grid.dual))
        for shift in (2.0, 0.0):
            def src(t):
                return np.cos(grid.nodes + shift * t)

            g = src if shift else src(0.0)
            for rows in (1, 3, 100, n_time + 1):
                monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * grid.n_points * rows)
                sol = picard_solve(drift, g, 0.25, model, grid, n_time=n_time)
                times, u = sol.times, sol.u
                delta = times[1] - times[0]
                worst = 0.0
                for j in range(1, times.size - 1):
                    du_dt = (u[j + 1] - u[j - 1]) / (2.0 * delta)
                    au = np.fft.ifft(-psi * np.fft.fft(u[j])).real
                    bgrad = drift(float(times[j]), grid.nodes) * sol.grad_u[j]
                    res = float(np.max(np.abs(du_dt + au + bgrad + src(float(times[j])))))
                    worst = max(worst, res)
                g_sup = max(float(np.max(np.abs(src(float(t))))) for t in times)
                assert (worst > 0.0) == (n_time > 1)
                assert sol.residual == worst / g_sup


class TestBalanceWitness:
    def test_kappa_below_one_iff_balance(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            alpha = rng.uniform(1.0 + 1e-9, 2.0)
            gamma0 = rng.uniform(1.0, 2.0)
            beta = rng.uniform(0.0, 1.0)
            assert (kappa_exponent(alpha, gamma0, beta) < 1.0) == balance_check(
                alpha, gamma0, beta)
