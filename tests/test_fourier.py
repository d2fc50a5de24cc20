"""Tests for transform-based pricing of smooth payoff profiles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrwpricer import (
    Contract,
    Family,
    JumpDensity,
    MarketParams,
    PayoffKind,
    QuadSpec,
    fit_from_moments,
)
from ctrwpricer.errors import InvalidParametersError
from ctrwpricer.european import vanilla_call_price
from ctrwpricer.fourier import (
    Payoff,
    butterfly_payoff,
    payoff_transform,
    price_fourier,
    price_two_point_exact,
)

R = 0.04
T_BAR = 0.25
DISC = math.exp(-R * T_BAR)

# integral of the (100, 10) butterfly profile over log-price:
# 2*105*ln(105) - 100*ln(100) - 110*ln(110) plus the matching linear terms
PROFILE_INTEGRAL = -0.23818530289501396
TRANSFORM_AT_07 = complex(0.23656864383381851, 0.027513546926531514)

# frozen prices of the (100, 10) butterfly at S=92, t_bar=0.25 for densities
# fitted to one-jump moments mu1=1e-3, mu2=1e-4 (quadrature oracle; the
# two-point value comes from the net-jump-count sum)
PRICE_S92 = {
    Family.GUMBEL: -0.027278590917854534,
    Family.GAUSSIAN: -0.015233750087856221,
    Family.PARETO_HALF: -0.01475606638787236,
    Family.DISCRETE: -0.011182149992694406,
}


def fitted_market(family: Family) -> MarketParams:
    return MarketParams.risk_neutral(R, fit_from_moments(family, 1e-3, 1e-4))


def gaussian_bump_payoff(center: float) -> Payoff:
    """Smooth test profile e^{-(x-center)^2/2} with a closed-form transform."""

    def transform(w):
        w = np.asarray(w, dtype=complex)
        return math.sqrt(2.0 * math.pi) * np.exp(1j * w * center - 0.5 * w * w)

    return Payoff(transform=transform, tail_order=2.0, value=None,
                  breakpoints=(center,))


class TestButterflyTransform:
    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            butterfly_payoff(0.0, 10.0)
        with pytest.raises(InvalidParametersError):
            butterfly_payoff(100.0, -1.0)

    def test_zero_frequency_is_profile_integral(self):
        pay = butterfly_payoff(100.0, 10.0)
        val = complex(payoff_transform(pay, 0.0))
        assert val.real == pytest.approx(PROFILE_INTEGRAL, abs=1e-10)
        assert abs(val.imag) < 1e-14

    def test_against_quadrature_oracle(self):
        pay = butterfly_payoff(100.0, 10.0)
        val = complex(payoff_transform(pay, 0.7))
        assert val.real == pytest.approx(TRANSFORM_AT_07.real, abs=1e-10)
        assert val.imag == pytest.approx(TRANSFORM_AT_07.imag, abs=1e-10)

    def test_removable_singularity_at_zero(self):
        pay = butterfly_payoff(100.0, 10.0)
        tiny = complex(payoff_transform(pay, 1e-12))
        assert tiny == pytest.approx(complex(payoff_transform(pay, 0.0)), abs=1e-9)

    def test_series_switchover_is_smooth(self):
        # the series-vs-ratio switch sits near w ~ 2e-7 for these kinks; a
        # branch glitch would dominate the tiny true curvature of the
        # second difference across that region
        pay = butterfly_payoff(100.0, 10.0)
        f = lambda w: complex(payoff_transform(pay, w))
        second_diff = f(3e-7) - 2.0 * f(2e-7) + f(1e-7)
        assert abs(second_diff) < 1e-12

    @given(w=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, w):
        pay = butterfly_payoff(100.0, 10.0)
        plus = complex(payoff_transform(pay, w))
        minus = complex(payoff_transform(pay, -w))
        assert cmath.isclose(minus, plus.conjugate(), rel_tol=1e-12, abs_tol=1e-14)

    def test_quadratic_tail_decay(self):
        pay = butterfly_payoff(100.0, 10.0)
        for w in (10.0, 100.0, 1e3, 1e4):
            assert abs(complex(payoff_transform(pay, w))) * w * w < 500.0

    def test_vectorised_evaluation(self):
        pay = butterfly_payoff(100.0, 10.0)
        ws = np.array([-1.0, 0.5, 3.0])
        batch = payoff_transform(pay, ws)
        for i, w in enumerate(ws):
            assert batch[i] == pytest.approx(complex(payoff_transform(pay, w)), rel=1e-14)

    def test_profile_peak_and_kinks(self):
        pay = butterfly_payoff(100.0, 10.0)
        assert pay.value(math.log(105.0)) == pytest.approx(-5.0, abs=1e-12)
        assert pay.value(math.log(100.0)) == pytest.approx(0.0, abs=1e-12)
        assert pay.value(math.log(110.0)) == pytest.approx(0.0, abs=1e-12)
        k1, k2, k3 = pay.breakpoints
        assert k1 < k2 < k3


class TestExpiryRecovery:
    def test_zero_time_returns_profile(self):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.GAUSSIAN)
        for spot in (95.0, 105.0, 108.0):
            x = math.log(spot)
            assert price_fourier(mp, pay, x, 0.0) == pytest.approx(pay.value(x), abs=1e-14)

    def test_profile_recovered_by_inversion_when_not_given(self):
        pay = gaussian_bump_payoff(0.3)
        mp = fitted_market(Family.GAUSSIAN)
        for x in (-0.5, 0.3, 1.0):
            want = math.exp(-0.5 * (x - 0.3) ** 2)
            assert price_fourier(mp, pay, x, 0.0) == pytest.approx(want, abs=1e-8)

    def test_small_time_limit_all_finite_activity_families(self):
        # the two-point law keeps |h~| = 1 at all frequencies, so its tail
        # budget must be set from the required tolerance, not the default
        pay = butterfly_payoff(100.0, 10.0)
        x = math.log(105.0)
        loose = QuadSpec(rel_tol=1e-7, abs_tol=1e-4)
        for family in Family:
            if family is Family.PARETO_HALF:
                continue
            spec = loose if family is Family.DISCRETE else QuadSpec()
            price = price_fourier(fitted_market(family), pay, x, 1e-6, spec=spec)
            assert price == pytest.approx(-5.0, abs=1e-3)

    def test_negative_time_rejected(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_fourier(fitted_market(Family.GAUSSIAN), pay, 0.0, -0.1)


class TestReplication:
    def test_matches_vanilla_call_combination(self, de_model):
        # the butterfly is two long calls at the midpoint against short calls
        # at the wings, so its transform price must match the call combination
        pay = butterfly_payoff(100.0, 10.0)
        for spot in (90.0, 100.0, 110.0):
            x = math.log(spot)
            legs = (
                2.0 * vanilla_call_price(de_model, Contract(PayoffKind.VANILLA_CALL, 105.0, T_BAR), x)
                - vanilla_call_price(de_model, Contract(PayoffKind.VANILLA_CALL, 100.0, T_BAR), x)
                - vanilla_call_price(de_model, Contract(PayoffKind.VANILLA_CALL, 110.0, T_BAR), x)
            )
            assert price_fourier(de_model, pay, x, T_BAR) == pytest.approx(legs, abs=1e-4)


class TestFittedFamilies:
    def test_frozen_prices_at_s92(self):
        pay = butterfly_payoff(100.0, 10.0)
        x = math.log(92.0)
        got = {
            Family.GUMBEL: price_fourier(fitted_market(Family.GUMBEL), pay, x, T_BAR),
            Family.GAUSSIAN: price_fourier(fitted_market(Family.GAUSSIAN), pay, x, T_BAR),
            Family.PARETO_HALF: price_fourier(fitted_market(Family.PARETO_HALF), pay, x, T_BAR),
            Family.DISCRETE: price_two_point_exact(fitted_market(Family.DISCRETE), pay, x, T_BAR),
        }
        assert got[Family.GUMBEL] == pytest.approx(PRICE_S92[Family.GUMBEL], abs=2e-7)
        assert got[Family.GAUSSIAN] == pytest.approx(PRICE_S92[Family.GAUSSIAN], abs=2e-7)
        assert got[Family.PARETO_HALF] == pytest.approx(PRICE_S92[Family.PARETO_HALF], abs=1e-9)
        assert got[Family.DISCRETE] == pytest.approx(PRICE_S92[Family.DISCRETE], abs=1e-12)

    def test_heavy_up_tail_dominates_two_point(self):
        ratio = PRICE_S92[Family.GUMBEL] / PRICE_S92[Family.DISCRETE]
        assert 2.4 <= ratio <= 3.6

    def test_bounds_hold_for_all_routes(self):
        pay = butterfly_payoff(100.0, 10.0)
        for spot in (92.0, 100.0, 106.0):
            x = math.log(spot)
            for family in (Family.GAUSSIAN, Family.GUMBEL, Family.PARETO_HALF):
                price = price_fourier(fitted_market(family), pay, x, T_BAR)
                assert -DISC * 5.0 - 1e-9 <= price <= 1e-9
            exact = price_two_point_exact(fitted_market(Family.DISCRETE), pay, x, T_BAR)
            assert -DISC * 5.0 - 1e-12 <= exact <= 1e-12


class TestTwoPointExact:
    def test_agrees_with_transform_route(self):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.DISCRETE)
        x = math.log(92.0)
        loose = QuadSpec(rel_tol=1e-6, abs_tol=1e-2)
        via_transform = price_fourier(mp, pay, x, T_BAR, spec=loose)
        exact = price_two_point_exact(mp, pay, x, T_BAR)
        assert abs(via_transform - exact) < 1e-2

    def test_zero_time_returns_profile(self):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.DISCRETE)
        got = price_two_point_exact(mp, pay, math.log(105.0), 0.0)
        assert got == pytest.approx(-5.0, abs=1e-12)

    def test_tail_mass_stability(self):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.DISCRETE)
        a = price_two_point_exact(mp, pay, math.log(98.0), T_BAR, tail_mass=1e-10)
        b = price_two_point_exact(mp, pay, math.log(98.0), T_BAR, tail_mass=1e-14)
        assert a == pytest.approx(b, abs=1e-12)

    def test_one_sided_law_prices_as_poisson_sum(self):
        # every jump is +b: the net count is the Poisson jump count itself
        from scipy import stats

        pay = butterfly_payoff(100.0, 10.0)
        mp = MarketParams.risk_neutral(R, JumpDensity(Family.DISCRETE, 1.0, 0.01))
        x = math.log(98.0)
        n = np.arange(400)
        want = math.exp(-R * T_BAR) * float(
            np.sum(stats.poisson.pmf(n, mp.lam * T_BAR) * pay.value(x + 0.01 * n)))
        assert price_two_point_exact(mp, pay, x, T_BAR) == pytest.approx(want, abs=1e-12)

    def test_rejects_other_families(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_two_point_exact(fitted_market(Family.GAUSSIAN), pay, 0.0, T_BAR)

    def test_requires_pointwise_profile(self):
        mp = fitted_market(Family.DISCRETE)
        pay = gaussian_bump_payoff(0.0)
        with pytest.raises(InvalidParametersError):
            price_two_point_exact(mp, pay, 0.0, T_BAR)

    def test_negative_time_rejected(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_two_point_exact(fitted_market(Family.DISCRETE), pay, 0.0, -1.0)


class TestSmoothPayoffPricing:
    def test_bump_price_bounded_and_positive(self):
        # a nonnegative profile keeps a nonnegative price below the
        # discounted supremum
        pay = gaussian_bump_payoff(0.0)
        mp = fitted_market(Family.EXPONENTIAL)
        price = price_fourier(mp, pay, 0.0, T_BAR)
        assert 0.0 <= price <= DISC + 1e-9

    def test_bump_price_decays_away_from_center(self):
        pay = gaussian_bump_payoff(0.0)
        mp = fitted_market(Family.EXPONENTIAL)
        near = price_fourier(mp, pay, 0.0, T_BAR)
        far = price_fourier(mp, pay, 3.0, T_BAR)
        assert far < near


BATCH_SPOTS = np.array([40.0, 92.0, 105.0, 300.0])
BATCH_SPEC = QuadSpec(rel_tol=1e-9, abs_tol=1e-8)


class TestBatchedSpots:
    """An array of log-spots shares one frequency grid; each entry must
    still carry the certificate of its own single-spot call."""

    @pytest.mark.parametrize("t_bar", [0.25, 1.0])
    @pytest.mark.parametrize("family", [
        Family.EXPONENTIAL, Family.CONSTANT, Family.GAUSSIAN, Family.LOGISTIC,
        Family.GUMBEL, Family.PARETO_HALF])
    def test_matches_scalar_calls(self, family, t_bar):
        # lam T is about 9.5 at t_bar = 0.25 and 38 at t_bar = 1, so both
        # forms of the jump weight (lam T <= 30 and > 30) are exercised
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(family)
        assert (mp.lam * t_bar > 30.0) == (t_bar == 1.0)
        xs = np.log(BATCH_SPOTS)
        batch = price_fourier(mp, pay, xs, t_bar, BATCH_SPEC)
        assert isinstance(batch, np.ndarray) and batch.shape == xs.shape
        for x, got in zip(xs, batch):
            single = price_fourier(mp, pay, float(x), t_bar, BATCH_SPEC)
            assert isinstance(single, float)
            assert abs(got - single) <= BATCH_SPEC.abs_tol

    def test_profile_inversion_batched(self):
        pay = gaussian_bump_payoff(0.3)
        mp = fitted_market(Family.GAUSSIAN)
        xs = np.array([-0.5, 0.3, 1.0])
        got = price_fourier(mp, pay, xs, 0.0)
        np.testing.assert_allclose(got, np.exp(-0.5 * (xs - 0.3) ** 2), atol=1e-8)

    @pytest.mark.parametrize("t_bar", [0.0, T_BAR, 5.0])
    def test_two_point_exact_matches_scalar_calls_exactly(self, t_bar):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.DISCRETE)
        xs = np.log(BATCH_SPOTS)
        batch = price_two_point_exact(mp, pay, xs, t_bar)
        assert batch.shape == xs.shape
        for x, got in zip(xs, batch):
            assert got == price_two_point_exact(mp, pay, float(x), t_bar)

    def test_rejects_two_dimensional_spots(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_fourier(fitted_market(Family.GAUSSIAN), pay, np.zeros((2, 2)), T_BAR)


class TestPhaseSeed:
    """The quadrature is seeded with the phase speed max |k - x| plus the
    jump drift; spots far from the strike must still converge to the
    closed-form replication (criterion 9), one by one and as a batch."""

    @pytest.mark.parametrize("t_bar", [0.25, 5.0])
    @pytest.mark.parametrize("market", ["reference", "fitted"])
    def test_far_spots_match_replication(self, de_model, market, t_bar):
        mp = de_model if market == "reference" else fitted_market(Family.EXPONENTIAL)
        pay = butterfly_payoff(100.0, 10.0)
        xs = np.log([20.0, 500.0])

        def legs(x):
            call = lambda K: vanilla_call_price(
                mp, Contract(PayoffKind.VANILLA_CALL, K, t_bar), x)
            return 2.0 * call(105.0) - call(100.0) - call(110.0)

        batch = price_fourier(mp, pay, xs, t_bar)
        for x, got in zip(xs, batch):
            want = legs(float(x))
            assert abs(got - want) <= 1e-4
            assert abs(price_fourier(mp, pay, float(x), t_bar) - want) <= 1e-4
