"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import math
import time

import numpy as np
import pytest

from levyem.engine import (drift_const, drift_cos, drift_rough, drift_zero,
                           euler_ladder)
from levyem.harness import VERDICT_VIOLATES, ExperimentConfig, run_experiment
from levyem.models import (Family, LevyModel, SubFamily, SubordinatorSpec, balance_check,
                           char_exponent_radial, kappa_exponent)
from levyem.rng import RngStream
from levyem.samplers import increments
from levyem.spectral import (SpaceGrid, density_fft, grad_l1_norm,
                             gradient_scaling_exponent, picard_solve,
                             second_l1_norm, suggest_grid)
from oracles import GAUSS_INV_NORM_3D, inverse_moment_scaling


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def empirical_cf_gaps(model, t, draws, xi_grid, seed, chunks=8):
    """Per-xi |empirical CF - exp(-t psi)| accumulated over chunked draws."""
    per_chunk = draws // chunks
    acc = np.zeros(xi_grid.size, dtype=complex)
    total = 0
    for c in range(chunks):
        batch = increments(model, t * per_chunk, per_chunk, RngStream(seed, c + 1))
        vals = batch.values[:, 0]
        acc += np.exp(1j * np.outer(xi_grid, vals)).sum(axis=1)
        total += per_chunk
        meta = batch.meta
    emp = acc / total
    target = np.exp(-t * char_exponent_radial(model, xi_grid))
    return np.abs(emp - target), total, meta


class TestA1BrownianRate:
    def test_a1(self):
        t0 = time.time()
        config = ExperimentConfig(
            model=LevyModel(Family.BROWNIAN), drift=drift_cos(), x0=0.0, T=1.0, p=2.0,
            n_list=(8, 16, 32, 64, 128, 256), n_ref=2048, paths=2000, seed=20240101)
        rep = run_experiment(config)
        elapsed = time.time() - t0
        ok = (rep.prediction.rate == 1.0 and rep.slope >= 1.0 - 0.15
              and rep.verdict != VERDICT_VIOLATES and rep.table.flagged == 0
              and elapsed <= 120.0)
        report("A1 brownian-rate", ok,
               f"fitted={rep.slope:.3f} predicted={rep.prediction.rate:.3f} "
               f"verdict={rep.verdict} flagged={rep.table.flagged} "
               f"runtime={elapsed:.1f}s")


class TestA2StableRate:
    def test_a2(self):
        t0 = time.time()
        config = ExperimentConfig(
            model=LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), drift=drift_cos(), x0=0.0,
            T=1.0, p=1.0, n_list=(8, 16, 32, 64, 128, 256), n_ref=2048,
            paths=4000, seed=20240102)
        rep = run_experiment(config)
        elapsed = time.time() - t0
        predicted = 2.0 / 3.0
        ok = (abs(rep.prediction.rate - predicted) < 1e-12
              and rep.slope >= predicted - 0.15 and rep.table.flagged == 0
              and elapsed <= 300.0)
        report("A2 stable-rate", ok,
               f"fitted={rep.slope:.3f} predicted={rep.prediction.rate:.4f} "
               f"verdict={rep.verdict} flagged={rep.table.flagged} "
               f"runtime={elapsed:.1f}s")


class TestA3RoughDriftSensitivity:
    def test_a3(self):
        config = ExperimentConfig(
            model=LevyModel(Family.ISOTROPIC_STABLE, alpha=1.9), drift=drift_rough(0.5), x0=0.0,
            T=1.0, p=1.0, n_list=(8, 16, 32, 64, 128, 256), n_ref=2048,
            paths=2000, seed=20240103)
        rep = run_experiment(config)
        predicted = 0.5 / 1.9
        ok = (abs(rep.prediction.rate - predicted) < 1e-12
              and rep.verdict != VERDICT_VIOLATES and rep.table.flagged == 0)
        report("A3 rough-drift", ok,
               f"fitted={rep.slope:.3f} predicted={rep.prediction.rate:.4f} "
               f"verdict={rep.verdict} flagged={rep.table.flagged}")


class TestA4Exactness:
    def test_a4(self):
        models = [
            LevyModel(Family.BROWNIAN),
            LevyModel(Family.BROWNIAN, dim=2),
            LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5),
            LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5, dim=2),
            LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
            LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75)),
            LevyModel(Family.SUBORDINATED_BM,
                      sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0)),
            LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
            LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
            LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
        ]
        worst = 0.0
        checks = 0
        for model in models:
            x0 = np.zeros(model.dim)
            noise = np.stack([increments(model, 1.0, 64, RngStream(424200 + seed, 0)).values
                              for seed in range(100)])
            for drift in (drift_zero(), drift_const(1.3)):
                _, sup = euler_ladder(drift, x0, 1.0, noise, (8,))
                worst = max(worst, float(sup.max()))
                checks += sup.size
        ok = worst == 0.0
        report("A4 exactness", ok,
               f"{checks} model/seed/drift combinations, worst coupled error {worst}")


class TestA5SamplerFidelity:
    M = 10 ** 6

    def test_a5_exact_families(self):
        cases = [
            ("brownian", LevyModel(Family.BROWNIAN), 0.25, 3.5),
            ("isotropic_stable", LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), 0.25, 3.5),
            ("relativistic_stable", LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
             0.25, 3.5),
            ("subordinated_bm/stable", LevyModel(
                Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75)), 0.25, 3.5),
            ("subordinated_bm/tempered", LevyModel(
                Family.SUBORDINATED_BM,
                sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0)), 0.25, 3.5),
        ]
        bound = 3.0 / math.sqrt(self.M) + 1e-12
        for k, (name, model, t, xi_hi) in enumerate(cases):
            xi = np.linspace(0.1, xi_hi, 32)
            gaps, total, _ = empirical_cf_gaps(model, t, self.M, xi, 555 + k)
            ok = total == self.M and float(gaps.max()) <= bound
            report("A5 cf-fidelity", ok,
                   f"{name}: sup|emp CF - exp(-t psi)| = {gaps.max():.2e} "
                   f"<= {bound:.2e} (M={total})")

    def test_a5_decomposition_families(self):
        from levyem.samplers import sample_jump_decomposition
        cases = [
            ("tempered_stable", LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)),
            ("truncated_stable", LevyModel(Family.TRUNCATED_STABLE, alpha=1.5)),
            ("layered_stable", LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)),
        ]
        t, eps = 0.25, 0.05
        xi = np.linspace(0.1, 3.5, 32)
        target_cache = {}
        for k, (name, model) in enumerate(cases):
            chunks, per_chunk = 10, self.M // 10
            acc = np.zeros(xi.size, dtype=complex)
            for c in range(chunks):
                vals, meta = sample_jump_decomposition(
                    model, eps, t, RngStream(777 + k, c + 1), size=per_chunk)
                acc += np.exp(1j * np.outer(xi, vals)).sum(axis=1)
            emp = acc / self.M
            target = np.exp(-t * char_exponent_radial(model, xi))
            gaps = np.abs(emp - target)
            tol = 3.0 / math.sqrt(self.M) + meta.cf_bias_bound(xi, t)
            ok = bool(np.all(gaps <= tol))
            report("A5 cf-fidelity", ok,
                   f"{name} (eps={eps}): sup gap {gaps.max():.2e}, "
                   f"max allowed {tol.max():.2e} incl. sigma2-bias term")


class TestA6GradientScaling:
    def test_a6(self):
        t0 = time.time()
        for alpha in (1.25, 1.5, 1.75):
            model = LevyModel(Family.ISOTROPIC_STABLE, alpha=alpha)
            res = gradient_scaling_exponent(model, np.geomspace(0.05, 0.8, 6))
            ok = abs(res.slope - (-1.0 / alpha)) <= 0.01
            report("A6 gradient-scaling", ok,
                   f"alpha={alpha}: slope={res.slope:.5f} target={-1.0 / alpha:.5f}")
        print(f"[A6 gradient-scaling] runtime {time.time() - t0:.1f}s")


class TestA7DerivativePropagation:
    def test_a7(self):
        catalog = [
            ("brownian", LevyModel(Family.BROWNIAN)),
            ("isotropic_stable", LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)),
            ("relativistic_stable", LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0)),
            ("tempered_stable", LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)),
            ("lamperti_stable", LevyModel(Family.LAMPERTI_STABLE, alpha=1.5, m=1.0)),
            ("truncated_stable", LevyModel(Family.TRUNCATED_STABLE, alpha=1.5)),
            ("layered_stable", LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)),
            ("subordinated_bm", LevyModel(
                Family.SUBORDINATED_BM,
                sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0))),
        ]
        for name, model in catalog:
            grid = suggest_grid(model, 0.05, 0.8, tail_target=3e-6,
                                max_points=2 ** 18)
            worst = 0.0
            for t in (0.05, 0.1, 0.2, 0.4):
                g1 = grad_l1_norm(density_fft(model, t, grid))
                s2 = second_l1_norm(density_fft(model, 2.0 * t, grid))
                worst = max(worst, s2 / (g1 * g1))
            ok = worst <= 1.0 + 1e-3
            report("A7 propagation", ok,
                   f"{name}: max ||p''_2t||/||p'_t||^2 = {worst:.4f} <= 1.001")


class TestA8PicardContraction:
    def test_a8(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        grid = SpaceGrid(16 * math.pi, 1024)
        g = np.cos(grid.nodes)
        drift = drift_cos()
        sol = picard_solve(drift, g, 0.25, model, grid, n_time=128,
                           target_ratio=0.5, tol=1e-9)
        ratios = sol.ratios
        consecutive = len(ratios) >= 5 and all(r <= 0.5 for r in ratios)
        res = sol.residual
        ok = sol.converged and consecutive and res <= 5e-3
        report("A8 picard-contraction", ok,
               f"horizon={sol.horizon} ratios(max)={max(ratios):.3f} over "
               f"{len(ratios)} iterates, residual={res:.2e} <= 5e-3")

        fine_grid = SpaceGrid(16 * math.pi, 2048)
        g_f = np.cos(fine_grid.nodes)
        sol_f = picard_solve(drift, g_f, 0.25, model, fine_grid, n_time=256,
                             target_ratio=0.5, tol=1e-9)
        res_f = sol_f.residual
        ok = res_f <= res / 2.0
        report("A8 residual-refinement", ok,
               f"residual {res:.2e} -> {res_f:.2e} under joint grid doubling")


class TestA9BalanceArithmetic:
    def test_a9(self):
        rng = np.random.default_rng(20240109)
        mismatches = 0
        for _ in range(1000):
            alpha = rng.uniform(1.0 + 1e-12, 2.0)
            gamma0 = rng.uniform(1.0, 2.0)
            beta = rng.uniform(0.0, 1.0)
            if (kappa_exponent(alpha, gamma0, beta) < 1.0) != balance_check(
                    alpha, gamma0, beta):
                mismatches += 1
        report("A9 balance-arithmetic", mismatches == 0,
               f"kappa<1 vs balance margin agreed on 1000/1000 draws "
               f"({mismatches} mismatches)")


class TestA10InverseMomentDiagnostic:
    def test_a10(self):
        for rho in (0.6, 0.75, 0.9):
            res = inverse_moment_scaling(SubordinatorSpec(SubFamily.STABLE, rho), 1,
                                         (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0),
                                         400_000, seed=int(1000 * rho))
            target = -1.0 / (2.0 * rho)
            slope_ok = abs(res.slope - target) <= 0.05
            const_ok = abs(res.norm_constant - GAUSS_INV_NORM_3D) <= 3 * res.norm_stderr
            report("A10 inverse-moment", slope_ok and const_ok,
                   f"rho={rho}: slope={res.slope:.4f} target={target:.4f}, "
                   f"E|B_1^(3)|^-1 = {res.norm_constant:.5f} vs "
                   f"{GAUSS_INV_NORM_3D:.5f} (3se={3 * res.norm_stderr:.1e})")
