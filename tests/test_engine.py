import math

import numpy as np
import pytest

from levyem.engine import (DriftSpec, SimulationGrid, coarsen,
                           coupled_sup_error, drift_const, drift_cos,
                           drift_cos_time, drift_diagnostics, drift_rough,
                           drift_zero, em_path)
from levyem.errors import DomainError, OverflowPathError, ShapeError
from levyem.models import LevyModel
from levyem.rng import RngStream
from levyem.samplers import IncrementBatch, increments


def zero_batch(n, d=1, dt=0.125):
    return IncrementBatch(dt=dt, values=np.zeros((n, d)),
                          model=LevyModel.brownian(dim=d))


class TestSimulationGrid:
    def test_step_map_brackets_s(self):
        grid = SimulationGrid(1.7, 13)
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0, 1.7, 1000)
        eta = grid.eta(s)
        assert np.all(eta <= s)
        assert np.all(s < eta + grid.dt + 1e-15)

    @pytest.mark.parametrize("T,n", [(1.0, 3), (1.0, 7), (math.pi, 5), (0.7, 12)])
    def test_step_map_exact_at_grid_points(self, T, n):
        grid = SimulationGrid(T, n)
        for i, t in enumerate(grid.times[:-1]):
            assert grid.eta(t) == t
            assert grid.step_index(t) == i

    def test_domain(self):
        with pytest.raises(DomainError):
            SimulationGrid(0.0, 4)
        with pytest.raises(DomainError):
            SimulationGrid(1.0, 4).eta(2.0)


class TestEmPath:
    def test_pure_noise_is_cumsum(self):
        batch = increments(LevyModel.brownian(), 1.0, 32, RngStream(1, 0))
        path = em_path(drift_zero(), 0.0, SimulationGrid(1.0, 32), batch)
        expected = np.concatenate([[0.0], np.cumsum(batch.values[:, 0])])
        assert np.array_equal(path.states[:, 0], expected)

    def test_constant_drift_zero_noise_exact_line(self):
        # dyadic step and drift keep every float op exact
        c, T, n = 0.5, 1.0, 8
        path = em_path(drift_const(c), 0.0, SimulationGrid(T, n), zero_batch(n))
        assert np.array_equal(path.states[:, 0], c * SimulationGrid(T, n).times)

    def test_cos_drift_matches_straight_line_reimplementation(self):
        batch = increments(LevyModel.brownian(), 1.0, 8, RngStream(2, 0))
        path = em_path(drift_cos(), 0.3, SimulationGrid(1.0, 8), batch)
        x = 0.3
        dt = 1.0 / 8
        for i in range(8):
            x = x + math.cos(x) * dt + float(batch.values[i, 0])
            assert abs(path.states[i + 1, 0] - x) <= 1e-15

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_flags_step(self):
        exploding = DriftSpec(lambda t, x: x ** 5, 1.0, 1.0, 1e308)
        with pytest.raises(OverflowPathError) as err:
            em_path(exploding, 10.0, SimulationGrid(1.0, 8), zero_batch(8, dt=0.125))
        assert err.value.step == 4  # fifth powers blow past the float range here

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            em_path(drift_zero(), 0.0, SimulationGrid(1.0, 16), zero_batch(8))
        with pytest.raises(ShapeError):
            em_path(drift_zero(), np.zeros(2), SimulationGrid(1.0, 8), zero_batch(8))

    def test_timeint_variant_matches_frozen_for_time_free_drift(self):
        batch = increments(LevyModel.brownian(), 1.0, 16, RngStream(3, 0))
        a = em_path(drift_cos(), 0.0, SimulationGrid(1.0, 16), batch, variant="frozen")
        b = em_path(drift_cos(), 0.0, SimulationGrid(1.0, 16), batch, variant="timeint")
        assert np.allclose(a.states, b.states, atol=1e-12)

    def test_timeint_integrates_time_dependence(self):
        # b(t, x) = cos(t) with zero noise: the scheme with exact time
        # integration reproduces sin(t) on the grid up to quadrature error
        drift = DriftSpec(lambda t, x: np.full_like(x, math.cos(t)), 1.0, 1.0, 1.0)
        n = 16
        path = em_path(drift, 0.0, SimulationGrid(1.0, n), zero_batch(n, dt=1 / n),
                       variant="timeint")
        assert np.allclose(path.states[:, 0], np.sin(SimulationGrid(1.0, n).times),
                           atol=1e-10)

    def test_csv_export(self, tmp_path):
        batch = increments(LevyModel.brownian(dim=2), 1.0, 4, RngStream(4, 0))
        path = em_path(drift_zero(), np.zeros(2), SimulationGrid(1.0, 4), batch)
        f = tmp_path / "path.csv"
        path.to_csv(f)
        lines = f.read_text().strip().split("\n")
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 6


class TestCoarsen:
    def test_example_all_ones(self):
        batch = IncrementBatch(dt=0.125, values=np.ones((8, 1)),
                               model=LevyModel.brownian())
        out = coarsen(batch, 2)
        assert np.array_equal(out.values, 2.0 * np.ones((4, 1)))
        assert out.dt == 0.25

    def test_halving_composition_is_exact(self):
        vals = RngStream(5, 0).generator().standard_normal((16, 2))
        batch = IncrementBatch(dt=0.0625, values=vals, model=LevyModel.brownian(dim=2))
        twice = coarsen(coarsen(batch, 2), 2)
        once = coarsen(batch, 4)
        assert np.array_equal(twice.values, once.values)

    def test_total_sum_preserved(self):
        vals = RngStream(6, 0).generator().standard_normal((32, 1))
        batch = IncrementBatch(dt=1 / 32, values=vals, model=LevyModel.brownian())
        out = coarsen(batch, 8)

        def pairwise_total(v):
            v = v.copy()
            while v.shape[0] > 1:
                if v.shape[0] % 2:
                    v = np.vstack([v[:-1:2] + v[1::2], v[-1:]])
                else:
                    v = v[::2] + v[1::2]
            return v[0]

        assert np.array_equal(pairwise_total(out.values), pairwise_total(batch.values))

    def test_non_divisible_rejected(self):
        batch = zero_batch(9)
        with pytest.raises(ShapeError):
            coarsen(batch, 2)


class TestCoupledError:
    def test_zero_drift_exact_zero(self):
        for model in (LevyModel.brownian(), LevyModel.isotropic_stable(1.5)):
            batch = increments(model, 1.0, 64, RngStream(7, 0))
            assert coupled_sup_error(drift_zero(), 0.0, 1.0, 64, 8, batch) == 0.0

    def test_constant_drift_exact_zero(self):
        batch = increments(LevyModel.isotropic_stable(1.5), 1.0, 64, RngStream(8, 0))
        assert coupled_sup_error(drift_const(1.3), 0.2, 1.0, 64, 8, batch) == 0.0

    def test_same_resolution_is_zero(self):
        batch = increments(LevyModel.brownian(), 1.0, 32, RngStream(9, 0))
        assert coupled_sup_error(drift_cos(), 0.0, 1.0, 32, 32, batch) == 0.0

    def test_cos_drift_matches_independent_two_pass_oracle(self):
        n_fine, n_coarse, T = 32, 8, 1.0
        batch = increments(LevyModel.brownian(), T, n_fine, RngStream(10, 0))
        # the time-dependent drift checks that the coarse scheme freezes time
        # at its own nodes
        for drift, b in ((drift_cos(), lambda t, x: math.cos(x)),
                         (drift_cos_time(), lambda t, x: math.cos(x + t))):
            got = coupled_sup_error(drift, 0.1, T, n_fine, n_coarse, batch)

            # oracle: build both paths explicitly with plain python floats
            dtf = T / n_fine
            factor = n_fine // n_coarse
            xs = [0.1]
            for i in range(n_fine):
                x = xs[-1]
                xs.append(x + b(i * dtf, x) * dtf + float(batch.values[i, 0]))
            ys = [0.1]
            anchor, anchor_t = 0.1, 0.0
            for i in range(n_fine):
                if i % factor == 0:
                    anchor = ys[-1]
                    anchor_t = (i // factor) * (T / n_coarse)
                ys.append(ys[-1] + b(anchor_t, anchor) * dtf + float(batch.values[i, 0]))
            oracle = max(abs(a - b) for a, b in zip(xs, ys))
            assert got == pytest.approx(oracle, abs=1e-12)
            assert got > 0.0

    def test_translation_equivariance_exact_on_dyadic_data(self):
        # dyadic increments, step and shift keep every float op exact, so the
        # shifted run must reproduce the base run bit for bit
        gen = RngStream(11, 0).generator()
        vals = gen.integers(-8, 9, size=(8, 1)).astype(float) / 16.0
        batch = IncrementBatch(dt=1 / 8, values=vals, model=LevyModel.brownian())
        v = 2.75
        base_drift = DriftSpec(lambda t, x: x, 1.0, 1.0, 100.0)
        shifted_drift = DriftSpec(lambda t, x: x - v, 1.0, 1.0, 100.0)
        base = em_path(base_drift, 0.0, SimulationGrid(1.0, 8), batch)
        shifted = em_path(shifted_drift, v, SimulationGrid(1.0, 8), batch)
        assert np.array_equal(shifted.states, base.states + v)

    def test_translation_equivariance_generic(self):
        v = 2.75
        batch = increments(LevyModel.brownian(), 1.0, 32, RngStream(11, 1))
        base = em_path(drift_cos(), 0.0, SimulationGrid(1.0, 32), batch)
        shifted_drift = DriftSpec(lambda t, x: np.cos(x - v), 1.0, 1.0, 1.0)
        shifted = em_path(shifted_drift, v, SimulationGrid(1.0, 32), batch)
        assert np.allclose(shifted.states, base.states + v, atol=1e-13)

    def test_coupling_error_shrinks_with_resolution(self):
        # averaged over paths, doubling n_coarse cannot increase the error by
        # more than statistical noise
        paths = 1000
        T, n_fine = 1.0, 256
        err_k = np.empty(paths)
        err_2k = np.empty(paths)
        for m in range(paths):
            batch = increments(LevyModel.brownian(), T, n_fine, RngStream(12, m))
            err_k[m] = coupled_sup_error(drift_cos(), 0.0, T, n_fine, 8, batch)
            err_2k[m] = coupled_sup_error(drift_cos(), 0.0, T, n_fine, 16, batch)
        se = math.hypot(err_k.std(ddof=1), err_2k.std(ddof=1)) / math.sqrt(paths)
        assert err_2k.mean() <= err_k.mean() + 2 * se

    def test_documented_intra_step_bound_is_zero_for_constant_drift(self):
        # between fine nodes both schemes move by drift only (noise is common),
        # so the continuous-time sup exceeds the grid sup by at most
        # 2 * bound * dt; for constant drift the two drifts agree and it is 0
        batch = increments(LevyModel.brownian(), 1.0, 16, RngStream(13, 0))
        assert coupled_sup_error(drift_const(0.9), 0.0, 1.0, 16, 4, batch) == 0.0


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
            DriftSpec(lambda t, x: x, beta=0.0, eta=1.0, bound=1.0)
