"""Jump-size distribution catalog: closed forms against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from ctrwpricer import Family, JumpDensity, char_fn, exp_moment, fit_from_moments
from ctrwpricer.densities import (
    EULER_GAMMA,
    mean_var,
    pdf,
    sample,
    sample_sum,
    symmetry_point,
)
from ctrwpricer.errors import (
    DivergentMomentError,
    DomainError,
    InvalidParametersError,
    UnsupportedFamilyError,
)

INTEGRABLE = [
    JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0),
    JumpDensity(Family.CONSTANT, -0.4, 0.9),
    JumpDensity(Family.GAUSSIAN, 0.1, 0.7),
    JumpDensity(Family.LOGISTIC, -0.2, 0.3),
    JumpDensity(Family.GUMBEL, 0.05, 0.4),
]

SAMPLABLE = INTEGRABLE + [JumpDensity(Family.DISCRETE, 0.6, 0.25)]


def numeric_char_fn(d: JumpDensity, omega: complex) -> complex:
    # finite window wide enough that pdf(x) e^{|x|} < 1e-14 at the edges for
    # every tested density, avoiding 0 * inf at the improper endpoints
    lo, hi = (d.a, d.b) if d.family is Family.CONSTANT else (-20.0, 35.0)
    pts = [p for p in (d.a, 0.0) if lo < p < hi]
    f = lambda x: pdf(d, x) * np.exp(1j * omega * x)
    re, _ = integrate.quad(lambda x: f(x).real, lo, hi, limit=400, points=pts)
    im, _ = integrate.quad(lambda x: f(x).imag, lo, hi, limit=400, points=pts)
    return complex(re, im)


class TestParameterValidation:
    def test_exponential_needs_positive_scales(self):
        with pytest.raises(InvalidParametersError):
            JumpDensity(Family.EXPONENTIAL, -0.5, 0.1)
        with pytest.raises(InvalidParametersError):
            JumpDensity(Family.EXPONENTIAL, 0.5, 0.0)

    def test_constant_needs_ordered_support(self):
        with pytest.raises(InvalidParametersError):
            JumpDensity(Family.CONSTANT, 1.0, 1.0)

    def test_pareto_scale_bounded(self):
        with pytest.raises(InvalidParametersError):
            JumpDensity(Family.PARETO_HALF, 0.5, 1.0)

    def test_discrete_weight_bounded(self):
        with pytest.raises(InvalidParametersError):
            JumpDensity(Family.DISCRETE, 1.2, 0.5)

    def test_serialization_round_trip(self):
        d = JumpDensity(Family.LOGISTIC, -0.2, 0.3)
        assert JumpDensity.from_dict(d.to_dict()) == d


class TestPdf:
    def test_exponential_at_origin(self):
        assert pdf(JumpDensity(Family.EXPONENTIAL, 1.0, 1.0), 0.0) == 0.5

    def test_constant_on_support(self):
        d = JumpDensity(Family.CONSTANT, -1.0, 1.0)
        assert pdf(d, 0.0) == 0.5
        assert pdf(d, 2.0) == 0.0

    def test_logistic_at_center(self):
        assert pdf(JumpDensity(Family.LOGISTIC, 0.0, 1.0), 0.0) == 0.25

    def test_discrete_has_no_density(self):
        with pytest.raises(UnsupportedFamilyError):
            pdf(JumpDensity(Family.DISCRETE, 0.5, 0.5), 0.0)

    @pytest.mark.parametrize("d", INTEGRABLE, ids=lambda d: d.family.value)
    def test_unit_mass(self, d):
        lo, hi = (d.a, d.b) if d.family is Family.CONSTANT else (-np.inf, np.inf)
        mass, _ = integrate.quad(lambda x: pdf(d, x), lo, hi, limit=400)
        assert abs(mass - 1.0) <= 1e-10


class TestCharFn:
    def test_gaussian_reference(self):
        assert abs(char_fn(JumpDensity(Family.GAUSSIAN, 0.0, 1.0), 1.0)
                   - math.exp(-0.5)) <= 1e-15

    @pytest.mark.parametrize("d", SAMPLABLE, ids=lambda d: d.family.value)
    def test_normalized_at_zero(self, d):
        assert char_fn(d, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_pareto_normalized_at_zero(self):
        assert char_fn(JumpDensity(Family.PARETO_HALF, 0.6, 0.3), 0.0) == 1.0

    def test_exponential_exp_moment_value(self):
        d = JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0)
        assert abs(char_fn(d, -1j).real - 1.8) <= 1e-12

    @pytest.mark.parametrize("d", INTEGRABLE, ids=lambda d: d.family.value)
    def test_matches_fourier_quadrature(self, d):
        for w in (-3.0, -1.0, 1.0, 3.0):
            assert abs(char_fn(d, w) - numeric_char_fn(d, w)) <= 1e-8
        assert abs(char_fn(d, -1j) - numeric_char_fn(d, -1j)) <= 1e-8

    @pytest.mark.parametrize("d", SAMPLABLE, ids=lambda d: d.family.value)
    def test_bounded_on_real_axis(self, d):
        for w in np.linspace(-40.0, 40.0, 17):
            assert abs(char_fn(d, w)) <= 1.0 + 1e-12

    def test_pareto_exp_moment_closed_form(self):
        a, b = 0.55, 0.3
        d = JumpDensity(Family.PARETO_HALF, a, b)
        expected = 1.0 - 2.0 * math.sqrt(math.pi) * (
            a * math.sqrt(1.0 - b) + (1.0 - a) * math.sqrt(1.0 + b) - 1.0
        )
        got = char_fn(d, -1j)
        assert abs(got.imag) <= 1e-15
        assert abs(got.real - expected) <= 1e-14

    @pytest.mark.parametrize("a, b", [(-0.2, 0.3), (0.01, 0.05), (0.3, 0.9), (0.0, 1.5)])
    def test_logistic_matches_log_gamma_form(self, a, b):
        # Gamma(1 - z) Gamma(1 + z) through scipy's log-gamma, a test-time oracle
        d = JumpDensity(Family.LOGISTIC, a, b)

        def oracle(w):
            z = 1j * b * w
            return np.exp(1j * a * w + special.loggamma(1.0 - z) + special.loggamma(1.0 + z))

        w = np.linspace(-200.0, 200.0, 40001)   # |Im z| up to 300
        assert np.max(np.abs(char_fn(d, w) - oracle(w))) <= 1e-14
        if b < 1.0:  # E[e^J], the complex node of risk-neutral calibration
            assert abs(char_fn(d, -1j) - oracle(-1j)) <= 1e-14
        # across the strip |Im w| < 1/b where the law has exponential moments
        strip = (w[::100, None] + 1j * np.linspace(-0.95 / b, 0.95 / b, 21)).ravel()
        want = oracle(strip)
        assert np.max(np.abs(char_fn(d, strip) - want) / np.maximum(1.0, np.abs(want))) <= 1e-14
        with pytest.raises(DomainError):
            char_fn(d, 1j / b)  # Gamma(1 + z) has its pole at z = -1

    def test_exponential_pole_rejected(self):
        d = JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0)
        with pytest.raises(Exception):
            char_fn(d, -2j)  # at omega = -i/a the closed form has a pole


class TestMoments:
    def test_exponential_values(self):
        mu1, mu2 = mean_var(JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0))
        assert abs(mu1 - 0.38888888888888889) <= 1e-15
        assert abs(mu2 - 0.26234567901234568) <= 1e-15

    def test_gaussian_identity(self):
        assert mean_var(JumpDensity(Family.GAUSSIAN, 0.0, 0.3)) == (0.0, 0.09)

    def test_discrete_round_moments(self):
        mu1, mu2 = mean_var(JumpDensity(Family.DISCRETE, 0.54975185951049946,
                                        0.01004987562112089))
        assert abs(mu1 - 1e-3) <= 1e-12
        assert abs(mu2 - 1e-4) <= 1e-12

    @pytest.mark.parametrize("d", INTEGRABLE, ids=lambda d: d.family.value)
    def test_match_numeric_moments(self, d):
        lo, hi = (d.a, d.b) if d.family is Family.CONSTANT else (-np.inf, np.inf)
        m1, _ = integrate.quad(lambda x: x * pdf(d, x), lo, hi, limit=400)
        m2, _ = integrate.quad(lambda x: (x - m1) ** 2 * pdf(d, x), lo, hi, limit=400)
        mu1, mu2 = mean_var(d)
        assert abs(mu1 - m1) <= 1e-9
        assert abs(mu2 - m2) <= 1e-9

    def test_pareto_moments_closed_form(self):
        a, b = 0.55, 0.3
        mu1, mu2 = mean_var(JumpDensity(Family.PARETO_HALF, a, b))
        sp = math.sqrt(math.pi)
        assert abs(mu1 - sp * (2 * a - 1) * b) <= 1e-15
        assert abs(mu2 - (sp / 2.0 * b * b - mu1 * mu1)) <= 1e-15


class TestMomentFit:
    def test_discrete_round_quantities(self):
        d = fit_from_moments(Family.DISCRETE, 1e-3, 1e-4)
        assert abs(d.a - 0.54975185951049946) <= 1e-14
        assert abs(d.b - 0.01004987562112089) <= 1e-14

    def test_gaussian_identity(self):
        d = fit_from_moments(Family.GAUSSIAN, 0.0, 1.0)
        assert (d.a, d.b) == (0.0, 1.0)

    def test_exponential_solution(self):
        d = fit_from_moments(Family.EXPONENTIAL, 1e-3, 1e-4)
        assert abs(d.a - 0.0075533679898329422) <= 1e-14
        assert abs(d.b - 0.0065533679898329422) <= 1e-14

    @pytest.mark.parametrize("family", [f for f in Family], ids=lambda f: f.value)
    def test_round_trip_from_target_moments(self, family):
        d = fit_from_moments(family, 1e-3, 1e-4)
        mu1, mu2 = mean_var(d)
        assert abs(mu1 - 1e-3) <= 1e-12
        assert abs(mu2 - 1e-4) <= 1e-12

    def test_infeasible_exponential_moments(self):
        # needs 2*mu2 > mu1^2
        with pytest.raises(InvalidParametersError):
            fit_from_moments(Family.EXPONENTIAL, 1.0, 0.4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([Family.EXPONENTIAL, Family.DISCRETE, Family.CONSTANT,
                         Family.GAUSSIAN, Family.LOGISTIC, Family.GUMBEL]),
        st.floats(-0.05, 0.05),
        st.floats(1e-6, 0.25),
    )
    def test_fit_inverts_mean_var(self, family, mu1, mu2):
        try:
            d = fit_from_moments(family, mu1, mu2)
        except InvalidParametersError:
            return
        got1, got2 = mean_var(d)
        assert abs(got1 - mu1) <= 1e-12 * max(1.0, abs(mu1))
        assert abs(got2 - mu2) <= 1e-12 * max(1.0, mu2)


class TestExpMoment:
    def test_divergent_exponential(self):
        with pytest.raises(DivergentMomentError):
            exp_moment(JumpDensity(Family.EXPONENTIAL, 1.5, 0.1))

    def test_divergent_logistic_and_gumbel(self):
        with pytest.raises(DivergentMomentError):
            exp_moment(JumpDensity(Family.LOGISTIC, 0.0, 1.0))
        with pytest.raises(DivergentMomentError):
            exp_moment(JumpDensity(Family.GUMBEL, 0.0, 1.2))

    def test_gaussian_unit_moment(self):
        b = 0.3
        d = JumpDensity(Family.GAUSSIAN, -b * b / 2.0, b)
        assert abs(exp_moment(d) - 1.0) <= 1e-15


class TestSampling:
    def test_degenerate_two_point(self):
        rng = np.random.default_rng(0)
        draws = sample(JumpDensity(Family.DISCRETE, 1.0, 0.5), rng, 1000)
        assert np.all(draws == 0.5)

    def test_two_point_support(self):
        rng = np.random.default_rng(1)
        draws = sample(JumpDensity(Family.DISCRETE, 0.6, 0.25), rng, 1000)
        assert set(np.unique(draws)) == {-0.25, 0.25}

    def test_exponential_mean(self):
        rng = np.random.default_rng(7)
        d = JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0)
        draws = sample(d, rng, 1_000_000)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean() - 0.38888888888888889) <= 3.0 * se

    def test_gumbel_mean_is_euler_gamma(self):
        rng = np.random.default_rng(11)
        draws = sample(JumpDensity(Family.GUMBEL, 0.0, 1.0), rng, 1_000_000)
        se = draws.std(ddof=1) / 1000.0
        assert abs(draws.mean() - EULER_GAMMA) <= 3.0 * se

    @pytest.mark.parametrize("d", SAMPLABLE, ids=lambda d: d.family.value)
    def test_moments_converge(self, d):
        rng = np.random.default_rng(3)
        draws = sample(d, rng, 400_000)
        mu1, mu2 = mean_var(d)
        se_mean = math.sqrt(mu2 / draws.size)
        assert abs(draws.mean() - mu1) <= 4.0 * se_mean
        assert abs(draws.var(ddof=1) - mu2) <= 0.02 * mu2

    def test_pareto_not_samplable(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UnsupportedFamilyError):
            sample(JumpDensity(Family.PARETO_HALF, 0.5, 0.3), rng, 10)


class TestSampleSum:
    @pytest.mark.parametrize("family", [Family.CONSTANT, Family.LOGISTIC, Family.GUMBEL],
                             ids=lambda f: f.value)
    def test_per_jump_families_sum_their_draws(self, family):
        # reference: the same jumps, drawn from the same stream, summed path by path
        d = fit_from_moments(family, 1e-3, 1e-4)
        counts = np.random.default_rng(1).poisson(3.0, 500)
        got = sample_sum(d, np.random.default_rng(2), counts, 3.0)
        jumps = sample(d, np.random.default_rng(2), int(counts.sum()))
        ends = np.cumsum(counts)
        want = [jumps[e - c:e].sum() for c, e in zip(counts, ends)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_no_time_no_move(self, family):
        d = fit_from_moments(family, 1e-3, 1e-4)
        got = sample_sum(d, np.random.default_rng(0), np.zeros(100, dtype=np.int64), 0.0)
        assert np.array_equal(got, np.zeros(100))

    def test_one_sided_tempered_tail(self):
        # a = 1 puts all mass on up-jumps: the down inverse-Gaussian part is 0
        d = JumpDensity(Family.PARETO_HALF, 1.0, 0.3)
        got = sample_sum(d, np.random.default_rng(4), np.zeros(200_000, dtype=np.int64), 5.0)
        assert np.all(got > 0.0)
        m1, v = mean_var(d)
        se = math.sqrt(5.0 * (v + m1 * m1) / got.size)
        assert abs(got.mean() - 5.0 * m1) <= 5.0 * se


class TestSymmetryPoint:
    def test_symmetric_families(self):
        assert symmetry_point(JumpDensity(Family.GAUSSIAN, 0.2, 1.0)) == 0.2
        assert symmetry_point(JumpDensity(Family.DISCRETE, 0.5, 0.3)) == 0.0
        assert symmetry_point(JumpDensity(Family.CONSTANT, -1.0, 3.0)) == 1.0
        assert symmetry_point(JumpDensity(Family.LOGISTIC, -0.1, 0.2)) == -0.1

    def test_asymmetric_families(self):
        assert symmetry_point(JumpDensity(Family.EXPONENTIAL, 0.5, 0.25)) is None
        assert symmetry_point(JumpDensity(Family.GUMBEL, 0.0, 0.2)) is None
        assert symmetry_point(JumpDensity(Family.DISCRETE, 0.6, 0.3)) is None
