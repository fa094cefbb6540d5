import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from levyem.errors import DensityError, DomainError
from levyem.models import (Family, LevyModel, SubFamily, SubordinatorSpec,
                           balance_check, balance_margin, bernstein_eval, char_exponent_radial,
                           check_rate_scope, kappa_exponent, lamperti_bernstein,
                           one_minus_cos_constant, predict_for_model,
                           predicted_rate, radial_density, stable_constant)
from oracles import radial_q, verify_levy_moment


def catalog():
    return [
        LevyModel(Family.BROWNIAN),
        LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5),
        LevyModel(Family.ISOTROPIC_STABLE, alpha=2.0),
        LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0),
        LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
        LevyModel(Family.LAMPERTI_STABLE, alpha=1.5, m=1.0),
        LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
        LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
        LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75)),
        LevyModel(Family.SUBORDINATED_BM,
                  sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0)),
    ]


class TestCharExponent:
    def test_isotropic_stable_alpha2_at_one(self):
        assert char_exponent_radial(LevyModel(Family.ISOTROPIC_STABLE, alpha=2.0), 1.0) == 1.0

    @pytest.mark.parametrize("dim", [1, 3])
    def test_brownian_is_stable_alpha2_bit_for_bit(self, dim):
        # Brownian motion is the alpha = 2 member of isotropic stable: psi = s * s
        bm = LevyModel(Family.BROWNIAN, dim=dim)
        stable2 = LevyModel(Family.ISOTROPIC_STABLE, alpha=2.0, dim=dim)
        s = np.logspace(-300, 150, 4001)
        assert char_exponent_radial(bm, s).tobytes() == (s * s).tobytes()
        assert char_exponent_radial(stable2, s).tobytes() == (s * s).tobytes()
        for x in (3.7e-155, 0.37, 1.3e150):
            assert char_exponent_radial(bm, x).hex() == char_exponent_radial(stable2, x).hex()
            assert char_exponent_radial(bm, x).hex() == (x * x).hex()

    def test_relativistic_at_zero(self):
        model = LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1.0)
        assert char_exponent_radial(model, 0.0) == 0.0

    def test_tempered_at_zero(self):
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        assert abs(char_exponent_radial(model, 0.0)) < 1e-15

    def test_zero_nonnegative_and_symmetric_on_grid(self):
        xi = np.linspace(-50.0, 50.0, 1000)
        for model in catalog():
            psi = char_exponent_radial(model, np.abs(xi))
            assert char_exponent_radial(model, 0.0) == 0.0
            assert np.all(psi >= -1e-12)
            # symmetric families have a real, even exponent
            for x in (0.7, 3.3, 17.0):
                val = char_exponent_radial(model, x)
                assert isinstance(val, float)
                assert val == char_exponent_radial(model, -x)

    def test_subordination_identity(self):
        sub = SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0)
        model = LevyModel(Family.SUBORDINATED_BM, sub=sub)
        for x in (0.0, 0.5, 2.0, 11.0):
            lhs = char_exponent_radial(model, x)
            rhs = bernstein_eval(sub, x * x)
            assert abs(lhs - rhs) <= 1e-12

    def test_relativistic_matches_tempered_subordination(self):
        alpha, m = 1.5, 1.0
        model = LevyModel(Family.RELATIVISTIC_STABLE, alpha=alpha, m=m)
        sub = SubordinatorSpec(SubFamily.TEMPERED_STABLE, alpha / 2.0, m)
        for x in (0.3, 1.0, 4.0):
            assert char_exponent_radial(model, x) == pytest.approx(
                bernstein_eval(sub, x * x), abs=1e-12)

    def test_tempered_closed_form_matches_levy_density(self):
        # the closed-form exponent of the tempered family must agree with the
        # direct integral of its radial density
        model = LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0)
        rd = radial_density(model)
        for s in (0.5, 2.0, 9.0):
            num, _ = integrate.quad(lambda r: (1 - np.cos(s * r)) * radial_q(rd, r),
                                    0, np.inf, limit=400)
            assert char_exponent_radial(model, s) == pytest.approx(num, rel=1e-6)

    def test_power_radial_exponent_vs_quadrature(self):
        # truncated / layered exponents against an oscillatory-quadrature oracle
        for model in (LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
                      LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)):
            a = model.alpha
            for s in (0.01, 0.7, 3.0, 40.0):
                r0 = min(1.0, 1.0 / s)
                ref, sign, fact = 0.0, 1.0, 1.0
                for k in range(1, 10):
                    fact *= (2 * k - 1) * (2 * k)
                    ref += sign * s ** (2 * k) / fact * r0 ** (2 * k - a) / (2 * k - a)
                    sign = -sign
                if r0 < 1.0:
                    ref += (r0 ** -a - 1.0) / a
                    ref -= integrate.quad(lambda r: r ** (-1 - a), r0, 1.0,
                                          weight="cos", wvar=s, limit=500)[0]
                if model.lambda_tail is not None:
                    lam = model.lambda_tail
                    ref += 1.0 / lam
                    ref -= integrate.quad(lambda r: r ** (-1 - lam), 1.0, np.inf,
                                          weight="cos", wvar=s)[0]
                assert char_exponent_radial(model, s) == pytest.approx(ref, rel=1e-6)

    def test_one_minus_cos_constant(self):
        for a in (1.2, 1.5, 1.9):
            ref, _ = integrate.quad(lambda u: (1 - np.cos(u)) * u ** (-1 - a),
                                    0, 200.0, limit=2000)
            ref += 1.0 / (a * 200.0 ** a)  # mass beyond the cutoff, oscillation negligible
            assert one_minus_cos_constant(a) == pytest.approx(ref, rel=1e-4)


# Recorded with mpmath at 40 digits from the exact double a:
# a 2^(a-1) Gamma((a+1)/2) / (sqrt(pi) Gamma(1 - a/2)) and a (a-1) / Gamma(2-a).
STABLE_CONSTANT = {
    0.01: 0.004971424808421545, 0.1: 0.04737216601893941, 0.25: 0.11041062584210533,
    0.5: 0.19947114020071635, 0.75: 0.270277897640086, 0.9: 0.30237048634305347,
    1.0: 0.3183098861837907, 1.1: 0.32900569345106795, 1.25: 0.33319353792264006,
    1.3: 0.33089837990038096, 1.5: 0.2992067103010745, 1.7: 0.22322203303378454,
    1.75: 0.1959173489213688, 1.9: 0.09099248247519456, 1.99: 0.00990793447628126,
}
TEMPERED_CONSTANT = {
    1.01: 0.010041039222082253, 1.1: 0.1029356593004161, 1.25: 0.25501529346820717,
    1.3: 0.3004494417079608, 1.5: 0.42314218766081724, 1.7: 0.3977845755513868,
    1.75: 0.3620080574646497, 1.9: 0.17974442804511415, 1.99: 0.019813424317986102,
}


class TestGamma:
    """The constants built on math.gamma, against recorded high-precision values."""

    @pytest.mark.parametrize("a", sorted(STABLE_CONSTANT))
    def test_stable_constant_matches_recorded_values(self, a):
        assert stable_constant(a) == pytest.approx(STABLE_CONSTANT[a], rel=1e-15, abs=0)

    @pytest.mark.parametrize("a", sorted(TEMPERED_CONSTANT))
    def test_tempered_constant_matches_recorded_values(self, a):
        c = radial_density(LevyModel(Family.TEMPERED_STABLE, alpha=a, m=1.0)).pieces[0].c
        assert c == pytest.approx(TEMPERED_CONSTANT[a], rel=1e-15, abs=0)

    @pytest.mark.parametrize("a", [0.0, 2.0, -0.5, math.nan, -1e-300, -2.0, 33.000001,
                                   171.0, math.inf])
    def test_exponents_outside_0_2_refused(self, a):
        with pytest.raises(DomainError, match="exponents in \\(0, 2\\)"):
            stable_constant(a)
        with pytest.raises(DomainError, match="exponents in \\(0, 2\\)"):
            one_minus_cos_constant(a)


class TestBernstein:
    def test_stable_examples(self):
        sub = SubordinatorSpec(SubFamily.STABLE, 0.75)
        assert bernstein_eval(sub, 0.0) == 0.0
        assert bernstein_eval(sub, 16.0) == 8.0

    @pytest.mark.parametrize("rho", [0.55, 0.75, 1.0])
    def test_stable_is_tempered_form_at_zero_tilt_bit_for_bit(self, rho):
        # (lam + 0) ** rho - 0 ** rho is lam ** rho exactly for lam >= 0
        sub = SubordinatorSpec(SubFamily.STABLE, rho)
        lam = np.concatenate(([0.0, 5e-324], np.logspace(-300, 300, 4001), [np.inf]))
        assert bernstein_eval(sub, lam).tobytes() == (lam ** rho).tobytes()
        # numpy's array loop for power may differ from float ** by an ulp
        for x in (0.0, 5e-324, 0.37, 16.0, 1e300):
            assert bernstein_eval(sub, x).hex() == float(np.asarray(x) ** rho).hex()

    @pytest.mark.parametrize("sub", [SubordinatorSpec(SubFamily.STABLE, 0.55),
                                     SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0)])
    def test_scalar_is_its_one_element_array_bit_for_bit(self, sub):
        lam = np.concatenate(([0.0, 5e-324], np.logspace(-300, 300, 601)))
        vals = bernstein_eval(sub, lam)
        assert [bernstein_eval(sub, x).hex() for x in lam] == [v.hex() for v in vals.tolist()]

    def test_tempered_tilt_cancels_at_zero(self):
        assert bernstein_eval(SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0), 0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            bernstein_eval(SubordinatorSpec(SubFamily.STABLE, 0.75), -1.0)

    @staticmethod
    def assert_bernstein_on_grid(f):
        lam = np.logspace(-6, 6, 200)
        vals = f(lam)
        assert f(0.0) == pytest.approx(0.0, abs=1e-12)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) >= -1e-12)
        slopes = np.diff(vals) / np.diff(lam)
        assert np.all(np.diff(slopes) <= 1e-10)

    @pytest.mark.parametrize("sub", [
        SubordinatorSpec(SubFamily.STABLE, 0.6),
        SubordinatorSpec(SubFamily.STABLE, 0.9),
        SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, 1.0),
    ])
    def test_bernstein_property_on_grid(self, sub):
        self.assert_bernstein_on_grid(lambda lam: bernstein_eval(sub, lam))

    def test_lamperti_bernstein_property_on_grid(self):
        self.assert_bernstein_on_grid(lamperti_bernstein(1.5, 1.0))

    def test_stable_growth_index_sharp(self):
        # f(lam)/lam^rho == 1 for every lam, so the liminf at infinity is 1
        sub = SubordinatorSpec(SubFamily.STABLE, 0.75)
        lam = np.logspace(-3, 8, 50)
        assert np.allclose(bernstein_eval(sub, lam) / lam ** 0.75, 1.0, atol=1e-12)


class TestBalanceAndRate:
    def test_balance_examples(self):
        assert balance_check(1.5, 1.5, 0.5) is True
        assert balance_margin(1.5, 1.5, 0.5) == pytest.approx(0.25)
        assert balance_check(1.1, 1.1, 0.1) is False
        assert balance_margin(1.1, 1.1, 0.1) == pytest.approx(-0.79)

    def test_balance_boundary_beta_zero(self):
        # margin -> 0+ as beta -> 0+; at beta = 0 the strict inequality fails
        assert balance_check(2.0, 2.0, 1e-9) is True
        assert balance_check(2.0, 2.0, 0.0) is False

    def test_balance_domain_errors(self):
        with pytest.raises(DomainError):
            balance_check(1.0, 1.5, 0.5)
        with pytest.raises(DomainError):
            balance_check(1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            balance_check(1.5, 1.5, 1.5)

    def test_predicted_rate_examples(self):
        assert predicted_rate(1.0, 0.5, 1.0, 1.5).rate == pytest.approx(1.0 / 3.0)
        assert predicted_rate(1.0, 1.0, 1.0, 1.0).rate == 1.0
        assert predicted_rate(0.5, 1.0, 0.4, 2.0).rate == pytest.approx(0.2)

    def test_predicted_rate_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(0.2, 3.0)
            eta = rng.uniform(0.05, 1.0)
            g0 = rng.uniform(1.0, 2.0)
            b1, b2 = sorted(rng.uniform(0.05, 1.0, 2))
            assert predicted_rate(p, b1, eta, g0).rate <= predicted_rate(p, b2, eta, g0).rate
            e1, e2 = sorted(rng.uniform(0.05, 1.0, 2))
            beta = rng.uniform(0.05, 1.0)
            assert predicted_rate(p, beta, e1, g0).rate <= predicted_rate(p, beta, e2, g0).rate
            g1, g2 = sorted(rng.uniform(1.0, 2.0, 2))
            assert predicted_rate(p, beta, eta, g2).rate <= predicted_rate(p, beta, eta, g1).rate

    def test_stable_admissibility_examples(self):
        # stable-like noise: balance at gamma0 = alpha
        assert balance_check(1.5, 1.5, 0.34) is True
        assert balance_check(1.5, 1.5, 1.0 / 3.0) is False
        assert balance_check(2.0, 2.0, 0.01) is True

    def test_admissibility_matches_balance_at_gamma0_alpha(self):
        # balance at gamma0 = alpha is the stable admissibility beta > 2/alpha - 1
        rng = np.random.default_rng(11)
        for _ in range(500):
            alpha = rng.uniform(1.0 + 1e-9, 2.0)
            beta = rng.uniform(0.0, 1.0)
            assert balance_check(alpha, alpha, beta) == (beta > 2.0 / alpha - 1.0)

    def test_kappa_identity_with_balance(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            alpha = rng.uniform(1.0 + 1e-9, 2.0)
            gamma0 = rng.uniform(1.0, 2.0)
            beta = rng.uniform(0.0, 1.0)
            assert (kappa_exponent(alpha, gamma0, beta) < 1.0) == \
                balance_check(alpha, gamma0, beta)

    def test_predict_for_model_open_infimum(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        pred = predict_for_model(model, beta=1.0, eta=1.0, p=1.0)
        assert pred.gamma0_eff == 1.5
        assert pred.is_supremum
        assert pred.rate == pytest.approx(2.0 / 3.0)
        assert pred.balance_ok

    def test_predict_for_model_clamps_p(self):
        model = LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5)
        pred = predict_for_model(model, beta=1.0, eta=1.0, p=2.0)
        assert pred.p == 1.5 and pred.p_clamped

    @pytest.mark.parametrize("p", [math.nan, 0.0, -1.0, -math.inf])
    def test_moment_order_must_be_positive(self, p):
        # min(1.0, nan, nan) is 1.0, so a NaN p would read as the best rate
        with pytest.raises(DomainError, match="p must be > 0"):
            predicted_rate(p, 1.0, 1.0, 1.5)
        for model in (LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), LevyModel(Family.BROWNIAN)):
            with pytest.raises(DomainError, match="p must be > 0"):
                predict_for_model(model, beta=1.0, eta=1.0, p=p)


class TestMomentVerification:
    def test_inner_power_closed_form(self):
        res = verify_levy_moment(lambda r: r ** -2.5, 1.6, "inner")
        assert res.finite
        assert res.value == pytest.approx(10.0, rel=1e-9)

    def test_inner_power_divergent(self):
        res = verify_levy_moment(lambda r: r ** -2.5, 1.4, "inner")
        assert not res.finite

    def test_inner_boundary_divergent(self):
        res = verify_levy_moment(lambda r: r ** -2.5, 1.5, "inner")
        assert not res.finite

    def test_outer_tempered_vs_quadrature(self):
        q = lambda r: r ** -2.5 * np.exp(-r)
        oracle, err = integrate.quad(lambda r: r ** 0.5 * r ** -2.5 * math.exp(-r),
                                     1.0, np.inf, epsabs=1e-14, epsrel=1e-12)
        assert err < 1e-10
        res = verify_levy_moment(q, 0.5, "outer")
        assert res.finite
        assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_negative_density_rejected(self):
        with pytest.raises(DensityError):
            verify_levy_moment(lambda r: r - 0.75, 1.6, "inner")

    def test_bad_region(self):
        with pytest.raises(DomainError):
            verify_levy_moment(lambda r: r ** -2.5, 1.6, "middle")

    @pytest.mark.parametrize("model", [
        LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0),
        LevyModel(Family.TRUNCATED_STABLE, alpha=1.5),
        LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
    ])
    def test_gamma0_is_open_infimum_of_density(self, model):
        q = partial(radial_q, radial_density(model))
        g0 = model.moments.gamma0
        assert verify_levy_moment(q, g0 + 0.1, "inner").finite
        assert not verify_levy_moment(q, g0, "inner").finite

    def test_layered_tail_index(self):
        model = LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)
        q = partial(radial_q, radial_density(model))
        assert verify_levy_moment(q, 2.4, "outer").finite
        assert not verify_levy_moment(q, 2.6, "outer").finite

    def test_truncated_has_no_tail(self):
        q = partial(radial_q, radial_density(LevyModel(Family.TRUNCATED_STABLE, alpha=1.5)))
        res = verify_levy_moment(q, 5.0, "outer")
        assert res.finite and res.value == 0.0


class TestModelValidation:
    def test_alpha_ranges(self):
        # the plain constructor admits the analysis-only Cauchy case, which
        # the convergence theory does not cover
        assert LevyModel(Family.ISOTROPIC_STABLE, alpha=1.0).alpha == 1.0
        with pytest.raises(DomainError):
            check_rate_scope(LevyModel(Family.ISOTROPIC_STABLE, alpha=1.0))
        with pytest.raises(DomainError):
            LevyModel(Family.RELATIVISTIC_STABLE, alpha=2.0, m=1.0)

    def test_subordinated_needs_rho_above_half(self):
        with pytest.raises(DomainError):
            LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.5))

    def test_moment_indices(self):
        assert LevyModel(Family.BROWNIAN).moments.gamma0 == 2.0
        assert LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5).moments.gamma_inf == 1.5
        assert math.isinf(LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1.0).moments.gamma_inf)
        sub_model = LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75))
        assert sub_model.moments.gamma0 == 1.5
        assert sub_model.gradient_index == 1.5
        pred = predict_for_model(sub_model, 0.5, 1.0, 1.0)
        assert pred.gamma0_eff == 1.5 and pred.rate == 0.5 / 1.5

    INF = math.inf

    # (constructor arguments, recorded indices: gradient index, gamma0,
    # gamma_inf, gamma0_open, gamma_inf_open).  The name is kept so the test IDs
    # stay stable; the rows check the constructor alone.
    @pytest.mark.parametrize("kwargs,indices", [
        (dict(family=Family.BROWNIAN, dim=2), (2.0, 2.0, INF, False, False)),
        (dict(family=Family.ISOTROPIC_STABLE, alpha=1.5), (1.5, 1.5, 1.5, True, True)),
        (dict(family=Family.ISOTROPIC_STABLE, alpha=2.0), (2.0, 2.0, INF, False, False)),
        (dict(family=Family.ISOTROPIC_STABLE, alpha=1.0), (1.0 + 1e-9, 1.0, 1.0, True, True)),
        (dict(family=Family.RELATIVISTIC_STABLE, dim=2, alpha=1.5, m=1.0),
         (1.5, 1.5, INF, True, False)),
        (dict(family=Family.TEMPERED_STABLE, alpha=1.5, m=1.0), (1.5, 1.5, INF, True, False)),
        (dict(family=Family.LAMPERTI_STABLE, alpha=1.5, m=1.0), (1.5, 1.5, INF, True, False)),
        (dict(family=Family.TRUNCATED_STABLE, alpha=1.7), (1.7, 1.7, INF, True, False)),
        (dict(family=Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5),
         (1.5, 1.5, 2.5, True, True)),
        (dict(family=Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75)),
         (1.5, 1.5, 1.5, True, True)),
        (dict(family=Family.SUBORDINATED_BM,
              sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.8, 1.0)),
         (1.6, 1.6, INF, True, False)),
        # rho = 1 gives f(lam) = lam: Brownian motion, with its indices
        (dict(family=Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 1.0)),
         (2.0, 2.0, INF, False, False)),
        (dict(family=Family.SUBORDINATED_BM,
              sub=SubordinatorSpec(SubFamily.TEMPERED_STABLE, 1.0, 1.0)),
         (2.0, 2.0, INF, False, False)),
    ], ids=["brownian", "stable", "stable2", "cauchy", "relativistic", "tempered",
            "lamperti", "truncated", "layered", "sub_stable", "sub_tempered",
            "sub_stable_rho1", "sub_tempered_rho1"])
    def test_constructor_matches_factory(self, kwargs, indices):
        # the indices are derived from the family and its parameters alone
        model = LevyModel(**kwargs)
        mi = model.moments
        assert (model.gradient_index, mi.gamma0, mi.gamma_inf, mi.gamma0_open,
                mi.gamma_inf_open) == indices

    def test_indices_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            LevyModel(Family.BROWNIAN, gradient_index=2.0)
        with pytest.raises(TypeError):
            LevyModel(Family.BROWNIAN, moments=LevyModel(Family.BROWNIAN).moments)

    def test_replace_recomputes_indices(self):
        model = dataclasses.replace(LevyModel(Family.ISOTROPIC_STABLE, alpha=1.5), alpha=1.8)
        assert model == LevyModel(Family.ISOTROPIC_STABLE, alpha=1.8)
        assert model.gradient_index == 1.8 and model.moments.gamma0 == 1.8
        sub_model = dataclasses.replace(
            LevyModel(Family.SUBORDINATED_BM, sub=SubordinatorSpec(SubFamily.STABLE, 0.75)),
            sub=SubordinatorSpec(SubFamily.STABLE, 0.9))
        assert sub_model.gradient_index == 1.8 and sub_model.moments.gamma_inf == 1.8

    @pytest.mark.parametrize("build", [
        lambda: SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75),
        lambda: SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, -1.0),
        lambda: SubordinatorSpec(SubFamily.STABLE, 0.75, 1.0),
        lambda: LevyModel(Family.TEMPERED_STABLE, alpha=1.5),
        lambda: LevyModel(Family.LAYERED_STABLE, alpha=1.5),
        lambda: LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=0.0),
        lambda: LevyModel(Family.SUBORDINATED_BM),
        lambda: LevyModel(Family.BROWNIAN, alpha=1.5),
        lambda: LevyModel(Family.TRUNCATED_STABLE, alpha=1.5, m=1.0),
        lambda: LevyModel(Family.TRUNCATED_STABLE, dim=2, alpha=1.5),
        lambda: LevyModel(Family.RELATIVISTIC_STABLE, alpha=2.0, m=1.0),
        lambda: LevyModel(Family.ISOTROPIC_STABLE, alpha=2.5),
        lambda: LevyModel(Family.ISOTROPIC_STABLE, alpha=0.0),
        lambda: LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=math.nan),
        lambda: LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=math.inf),
        lambda: LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=math.inf),
        lambda: LevyModel(Family.TEMPERED_STABLE, alpha=1.5, m=1e300),
        lambda: LevyModel(Family.RELATIVISTIC_STABLE, alpha=1.5, m=1e300),
        lambda: LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=math.inf),
        lambda: SubordinatorSpec(SubFamily.TEMPERED_STABLE, 0.75, math.inf),
    ], ids=["tempered_sub_no_m", "tempered_sub_negative_m", "stable_sub_with_m",
            "tempered_no_m", "layered_no_lambda", "layered_lambda_zero", "sub_bm_no_sub",
            "brownian_with_alpha", "truncated_with_m", "truncated_2d",
            "relativistic_alpha2", "stable_alpha_above_2", "stable_alpha_zero",
            "tempered_m_nan", "tempered_m_inf", "relativistic_m_inf",
            "tempered_m_square_overflows", "relativistic_m_square_overflows",
            "layered_lambda_inf", "tempered_sub_m_inf"])
    def test_bad_parameters_rejected_at_construction(self, build):
        with pytest.raises(DomainError):
            build()

    def test_models_hashable_and_comparable(self):
        a = LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)
        b = LevyModel(Family.LAYERED_STABLE, alpha=1.5, lambda_tail=2.5)
        assert a == b and hash(a) == hash(b)
        assert a.describe() == b.describe()
