"""Tests for transform-based pricing of smooth payoff profiles."""

import cmath
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrwpricer import (
    Contract,
    char_fn,
    Family,
    JumpDensity,
    MarketParams,
    PayoffKind,
    QuadSpec,
    cli,
    fit_from_moments,
    fourier,
    numerics,
)
from ctrwpricer.errors import (
    AccuracyError,
    InvalidParametersError,
    TailBoundError,
    ValidationError,
)
from ctrwpricer.european import vanilla_call_price
from ctrwpricer.fourier import (
    Payoff,
    butterfly_legs,
    butterfly_payoff,
    price_fourier,
    price_two_point_exact,
)
from ctrwpricer.numerics import expm1_ratio

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

    def value(x):
        return np.exp(-0.5 * (np.asarray(x, dtype=float) - center) ** 2)

    return Payoff(value=value, breakpoints=(center,), transform=transform)


class TestButterflyTransform:
    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            butterfly_payoff(0.0, 10.0)
        with pytest.raises(InvalidParametersError):
            butterfly_payoff(100.0, -1.0)

    def test_zero_frequency_is_profile_integral(self):
        pay = butterfly_payoff(100.0, 10.0)
        val = complex(pay.transform(0.0))
        assert val.real == pytest.approx(PROFILE_INTEGRAL, abs=1e-10)
        assert abs(val.imag) < 1e-14

    def test_against_quadrature_oracle(self):
        pay = butterfly_payoff(100.0, 10.0)
        val = complex(pay.transform(0.7))
        assert val.real == pytest.approx(TRANSFORM_AT_07.real, abs=1e-10)
        assert val.imag == pytest.approx(TRANSFORM_AT_07.imag, abs=1e-10)

    def test_removable_singularity_at_zero(self):
        pay = butterfly_payoff(100.0, 10.0)
        tiny = complex(pay.transform(1e-12))
        assert tiny == pytest.approx(complex(pay.transform(0.0)), abs=1e-9)

    def test_series_switchover_is_smooth(self):
        # the series-vs-ratio switch sits near w ~ 2e-7 for these kinks; a
        # branch glitch would dominate the tiny true curvature of the
        # second difference across that region
        pay = butterfly_payoff(100.0, 10.0)
        f = lambda w: complex(pay.transform(w))
        second_diff = f(3e-7) - 2.0 * f(2e-7) + f(1e-7)
        assert abs(second_diff) < 1e-12

    @given(w=st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, w):
        pay = butterfly_payoff(100.0, 10.0)
        plus = complex(pay.transform(w))
        minus = complex(pay.transform(-w))
        assert cmath.isclose(minus, plus.conjugate(), rel_tol=1e-12, abs_tol=1e-14)

    def test_real_arithmetic_matches_the_expm1_ratio_form(self):
        # the complex form -e^{(1+iw) k2} sum_j e^{d_j} d_j (e^{iwd_j} - 1)/(iwd_j)
        # / (1+iw), through expm1_ratio.  Its two kink terms cancel about
        # 15-fold near w = 0, which scales either form's rounding, so they
        # agree to 16 ulps of max |transform| (13 seen), and exactly at w = 0
        K, L = 100.0, 10.0
        k1, k2, k3 = math.log(K), math.log(K + 0.5 * L), math.log(K + L)
        d1, d3 = k1 - k2, k3 - k2

        def complex_form(w):
            z = 1.0 + 1j * w
            num = (math.exp(d1) * d1 * expm1_ratio(1j * w * d1)
                   + math.exp(d3) * d3 * expm1_ratio(1j * w * d3))
            return -np.exp(z * k2) * num / z

        w = np.linspace(0.0, 1e4, 20001)
        got, want = butterfly_payoff(K, L).transform(w), complex_form(w)
        assert np.max(np.abs(got - want)) <= 16.0 * np.spacing(np.max(np.abs(want)))
        assert got[0] == want[0] and got[0].imag == 0.0

    def test_quadratic_tail_decay(self):
        pay = butterfly_payoff(100.0, 10.0)
        for w in (10.0, 100.0, 1e3, 1e4):
            assert abs(complex(pay.transform(w))) * w * w < 500.0

    def test_vectorised_evaluation(self):
        pay = butterfly_payoff(100.0, 10.0)
        ws = np.array([-1.0, 0.5, 3.0])
        batch = pay.transform(ws)
        for i, w in enumerate(ws):
            assert batch[i] == pytest.approx(complex(pay.transform(w)), rel=1e-14)

    def test_profile_is_the_sum_of_its_legs(self):
        pay = butterfly_payoff(100.0, 10.0)
        x = np.log(np.linspace(80.0, 130.0, 101))
        legs = butterfly_legs(100.0, 10.0)
        assert legs == ((2.0, 105.0), (-1.0, 100.0), (-1.0, 110.0))
        want = sum(w * np.maximum(np.exp(x) - K, 0.0) for w, K in legs)
        np.testing.assert_array_equal(pay.value(x), want)

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

    @pytest.mark.parametrize("t_bar", [0.0, T_BAR])
    def test_refuses_payoff_without_transform(self, t_bar):
        pay = Contract(PayoffKind.BINARY_CALL, 100.0, t_bar).payoff
        with pytest.raises(InvalidParametersError, match="transform"):
            price_fourier(fitted_market(Family.GAUSSIAN), pay, math.log(100.0), t_bar)


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

    def test_negative_time_rejected(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_two_point_exact(fitted_market(Family.DISCRETE), pay, 0.0, -1.0)


BUTTERFLY = butterfly_payoff(100.0, 10.0)


def two_point_market(lam_t: float, b: float) -> MarketParams:
    """A symmetric two-point law of jump size b at intensity lam_t, so that
    lam T = lam_t exactly at T = 1."""
    return MarketParams(r=R, density=JumpDensity(Family.DISCRETE, 0.5, b), lam=lam_t)


def net_count_reach(lam_t: float) -> int:
    """The reach m_max of the net-count sum at lam T = lam_t."""
    return math.ceil(lam_t + 12.0 * math.sqrt(lam_t) + 30.0 - math.log10(fourier._TAIL_MASS))


def no_warning_price(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return price_two_point_exact(*args)


class TestTwoPointBudget:
    """The net-count sum is refused, before any pmf or lattice is formed,
    when it reaches past MAX_NET_JUMPS jumps or a lattice log-price where
    the payoff overflows; on either side of each edge no warning is raised."""

    @pytest.fixture
    def no_pmf(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the net-count pmf was formed")
        monkeypatch.setattr(fourier, "poisson_difference_pmf", refuse)

    @staticmethod
    def edge_lam_t() -> float:
        """The largest lam T whose reach is MAX_NET_JUMPS."""
        u = math.sqrt(36.0 + fourier.MAX_NET_JUMPS - 30.0 + math.log10(fourier._TAIL_MASS)) - 6.0
        lam_t = u * u
        while net_count_reach(lam_t) > fourier.MAX_NET_JUMPS:
            lam_t = math.nextafter(lam_t, 0.0)
        while net_count_reach(math.nextafter(lam_t, math.inf)) <= fourier.MAX_NET_JUMPS:
            lam_t = math.nextafter(lam_t, math.inf)
        return lam_t

    def test_reach_edge(self, no_pmf):
        lam_t = math.nextafter(self.edge_lam_t(), math.inf)
        assert net_count_reach(lam_t) == fourier.MAX_NET_JUMPS + 1
        with pytest.raises(ValidationError, match="above the budget of 32768"):
            no_warning_price(two_point_market(lam_t, 1e-4), BUTTERFLY, math.log(95.0), 1.0)

    def test_reach_at_the_budget_prices(self):
        lam_t = self.edge_lam_t()
        assert net_count_reach(lam_t) == fourier.MAX_NET_JUMPS
        price = no_warning_price(two_point_market(lam_t, 1e-4), BUTTERFLY, math.log(95.0), 1.0)
        assert -5.0 <= price <= 0.0  # the profile runs from 0 down to -5 at K + L/2

    @pytest.mark.parametrize("t_bar", [2000.0, 1e4, 1e7])
    def test_fitted_law_at_long_horizons(self, no_pmf, t_bar):
        # fig4's two-point law: NaN at T = 2000 and 1e4, a 5.7 GiB allocation at 1e7
        with pytest.raises(ValidationError):
            no_warning_price(fitted_market(Family.DISCRETE), BUTTERFLY, math.log(95.0), t_bar)

    def test_overflowing_lattice_refused(self, no_pmf):
        # lam T = 100 with jumps of 5 reaches log-price 1325: NaN before
        with pytest.raises(ValidationError, match="where the payoff overflows"):
            no_warning_price(two_point_market(1.0, 5.0), BUTTERFLY, math.log(100.0), 100.0)

    # reach 57 at lam T = 1 with jumps of 1/2: the top lattice point is x + 28.5
    TOP = fourier._MAX_LOG_PRICE - 28.5

    def test_log_price_edge(self, no_pmf):
        assert self.TOP + 0.5 * net_count_reach(1.0) >= fourier._MAX_LOG_PRICE
        with pytest.raises(ValidationError, match="where the payoff overflows"):
            no_warning_price(two_point_market(1.0, 0.5), BUTTERFLY, np.array([0.0, self.TOP]),
                             1.0)

    def test_log_price_below_the_edge_prices(self):
        x = math.nextafter(self.TOP, 0.0)
        assert x + 0.5 * net_count_reach(1.0) < fourier._MAX_LOG_PRICE
        prices = no_warning_price(two_point_market(1.0, 0.5), BUTTERFLY, np.array([0.0, x]), 1.0)
        assert np.isfinite(prices).all()


class TestUniformJumpWeight:
    """For uniform jumps the one-jump term is added to the atom, so both
    forms of the jump weight (lam T <= 30 and > 30) must leave it out of
    the integrand; a double count would show as a jump in price at 30."""

    def test_price_continuous_across_lam_t_30(self):
        pay = butterfly_payoff(100.0, 10.0)
        d = fit_from_moments(Family.CONSTANT, 1e-3, 1e-4)
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-13)
        xs = np.log([92.0, 100.0, 105.0, 108.0])
        at, above = (
            price_fourier(MarketParams(r=R, density=d, lam=lt / T_BAR), pay, xs, T_BAR, spec)
            for lt in (30.0, math.nextafter(30.0, math.inf)))
        np.testing.assert_allclose(above, at, rtol=0.0, atol=1e-13)


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

    @pytest.mark.parametrize("t_bar", [0.0, T_BAR, 5.0])
    def test_two_point_exact_matches_scalar_calls_exactly(self, t_bar):
        pay = butterfly_payoff(100.0, 10.0)
        mp = fitted_market(Family.DISCRETE)
        xs = np.log(BATCH_SPOTS)
        batch = price_two_point_exact(mp, pay, xs, t_bar)
        assert batch.shape == xs.shape
        for x, got in zip(xs, batch):
            assert got == price_two_point_exact(mp, pay, float(x), t_bar)

    def test_wide_column_prices_where_its_spots_do(self):
        # 41 spots at rho=20, sigma=0.05: the phase seed of the widest
        # panels asked 2.76M nodes x spots of a first pass, past the 2^21
        # budget, while each spot alone prices; charged nodes plus slices x
        # spots, the column prices within each spot's tolerance
        pay = butterfly_payoff(100.0, 10.0)
        mp = MarketParams.from_rho_sigma(20.0, R, 0.05)
        xs = np.log(np.arange(80.0, 121.0))
        column = price_fourier(mp, pay, xs, T_BAR)
        for x, got in zip(xs[::10], column[::10]):
            assert abs(got - price_fourier(mp, pay, float(x), T_BAR)) <= QuadSpec().abs_tol

    def test_rejects_two_dimensional_spots(self):
        pay = butterfly_payoff(100.0, 10.0)
        with pytest.raises(InvalidParametersError):
            price_fourier(fitted_market(Family.GAUSSIAN), pay, np.zeros((2, 2)), T_BAR)


class TestHermitianIntegrand:
    """The real-line integral evaluates its integrand at w >= 0 only and
    takes g(-w) as conj g(w); both transforms in the integrand must obey
    that exactly, for every family."""

    W = np.linspace(0.0, 1e4, 20001)

    @pytest.mark.parametrize("moments", [(1e-3, 1e-4), (0.02, 0.01)], ids=str)
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_char_fn_is_hermitian(self, family, moments):
        d = fit_from_moments(family, *moments)
        np.testing.assert_array_equal(char_fn(d, -self.W), np.conj(char_fn(d, self.W)))

    def test_butterfly_transform_is_hermitian(self):
        transform = butterfly_payoff(100.0, 10.0).transform
        np.testing.assert_array_equal(transform(-self.W), np.conj(transform(self.W)))

    def test_reference_butterfly_takes_half_the_nodes(self, de_model):
        # 37,088 nodes when each node was evaluated at +w and -w, 35 calls
        # when each panel was refined in calls of its own, 9 when each tail
        # window was sampled in a call of its own, and 7 calls on 18,544
        # nodes when each panel's first two passes took a call each and the
        # seed was floored at 1 rad per unit of w
        seen = []
        pay = butterfly_payoff(100.0, 10.0)

        def counted(w):
            seen.append(np.array(w))
            return pay.transform(w)

        price = price_fourier(de_model, dataclasses.replace(pay, transform=counted),
                              math.log(92.0), T_BAR)
        nodes = np.concatenate(seen)
        assert nodes.size == 15568 and len(seen) == 6
        assert np.min(nodes) >= 0.0
        # the value both pairings give, to a few ulps
        assert abs(price - (-0.0036757101934667153)) <= 4e-18

    @pytest.mark.parametrize("fig_id, calls, nodes, model_nodes",
                             [("fig3", 5, 5568, 7680), ("fig4", 6, 3600, 10464)])
    def test_figure_build_counts(self, monkeypatch, fig_id, calls, nodes, model_nodes):
        # the calls and nodes of the shared factor (the payoff transform) of
        # one transform-figure build, and the nodes each model's own factor
        # is evaluated on, the same on every machine.  Each model keeps its
        # node set, so the factors see what the integrand of a call per
        # column saw: 13 and 24 calls on 7,680 and 10,464 nodes; 20 and 38
        # calls, on 13,344 and 17,568 nodes, when each tail window was
        # sampled in a call of its own; 16 and 30 calls, on 13,440 and
        # 17,760 nodes, when panels were seeded at 1 rad per unit of w at
        # least and each first two passes took a call each
        shared, own = [], []
        inner = fourier.integrate_real_line

        def counted(g, *args, factors, **kwargs):
            def recorded(w):
                shared.append(np.size(w))
                return g(w)

            def model(factor):
                def recorded_factor(w, gw):
                    own.append(np.size(w))
                    return factor(w, gw)
                return recorded_factor
            return inner(recorded, *args, factors=[model(f) for f in factors], **kwargs)

        monkeypatch.setattr(fourier, "integrate_real_line", counted)
        cli.build_figure(fig_id)
        assert len(shared) <= calls and sum(shared) <= nodes
        assert sum(own) == model_nodes


class TestPhaseSeed:
    """The quadrature is seeded with the phase speed max |k - x| plus the
    jump term max(1, lam T) sqrt(E[J^2]); spots far from the strike must
    still converge to the closed-form replication (criterion 9), one by one
    and as a batch, and a seed only sets the cost, never the certificate."""

    @staticmethod
    def floor_seed(payoff, xs, d, lt):
        """The seed floored at 1 rad per unit of w, with the jump drift
        lam T |E[J]| for the jump term."""
        ks = np.asarray(payoff.breakpoints, dtype=float)
        reach = float(np.max(np.abs(ks[:, None] - xs[None, :])))
        return max(1.0, reach + lt * abs(fourier.mean_var(d)[0]))

    @pytest.mark.parametrize("fig_id", ["fig3", "fig4"])
    def test_columns_match_the_floor_seed(self, monkeypatch, fig_id):
        # every column, every family of fig4 included, is the same integral
        # on another first grid, each refined until its own certificate held
        new = cli.build_figure(fig_id)
        monkeypatch.setattr(fourier, "_osc_hint", self.floor_seed)
        old = cli.build_figure(fig_id)
        assert new.columns == old.columns and len(new.rows) == len(old.rows)
        gaps = [abs(a - b) for got, want in zip(new.rows, old.rows) for a, b in zip(got, want)]
        assert max(gaps) <= 1e-13

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


class TestRealLineErrors:
    """An AccuracyError from the transform route carries the price's own
    estimate, and a node budget no call of the integrand exceeds."""

    def test_seed_past_the_node_budget_raises_before_evaluating(self):
        # the two-point weight never decays, so Omega lies far out and the
        # phase seed of the widest panel asks a first pass of 13.4M nodes:
        # refused before the integrand sees it, not a MemoryError
        pay = butterfly_payoff(100.0, 10.0)
        biggest = []

        def counted(w):
            biggest.append(np.size(w))
            return pay.transform(w)

        mp = fitted_market(Family.DISCRETE)
        start = time.perf_counter()
        with pytest.raises(AccuracyError):
            price_fourier(mp, dataclasses.replace(pay, transform=counted), math.log(80.0), 0.05,
                          QuadSpec(abs_tol=1e-6))
        assert time.perf_counter() - start < 5.0
        assert max(biggest) <= QuadSpec().max_nodes

    def test_error_carries_the_price_estimate(self):
        # the estimate is the no-jump atom plus every panel's current value,
        # not the failing panel's own integral (-0.000885 once, against the
        # price -0.003918), and its bound holds
        mp = MarketParams.from_rho_sigma(2.0, R, 0.1)
        pay = butterfly_payoff(100.0, 10.0)
        x = math.log(95.0)
        with pytest.raises(AccuracyError) as exc:
            price_fourier(mp, pay, x, T_BAR, QuadSpec(rel_tol=1e-12, abs_tol=1e-16, max_nodes=256))
        price = price_fourier(mp, pay, x, T_BAR)
        best, bound = exc.value.best, exc.value.bound
        assert type(best) is float and abs(best - price) <= 1e-8
        assert abs(best - price) <= bound


def figure_stack(fig_id: str) -> tuple:
    """The transform-route markets of a fig3 or fig4 build, in column order,
    with its payoff, log-spots, horizon and quadrature spec."""
    meta = cli.FIGURES[fig_id][1]
    if fig_id == "fig3":
        markets = list(cli._exp_models(meta).values())
    else:
        markets = [MarketParams.risk_neutral(meta["r"], fit_from_moments(Family(f), meta["mu1"],
                                                                         meta["mu2"]))
                   for f in meta["families"] if f != Family.DISCRETE.value]
    return (markets, butterfly_payoff(meta["K"], meta["L"]), np.log(cli._grid(meta["grid"])),
            meta["T"], cli._spec(meta["tol"], cli.FOURIER_TOL))


def outcome(price):
    """A pricing call's prices as bytes, or its error's class, message,
    estimate and bound."""
    try:
        got = price()
    except AccuracyError as exc:
        best, bound = np.asarray(exc.best).tobytes(), np.asarray(exc.bound).tobytes()
        return type(exc), str(exc), best, bound
    return [np.asarray(col).tobytes() for col in (got if isinstance(got, list) else [got])]


class TestStackedMarkets:
    """A sequence of markets prices in one stacked integral: each column is
    its own call's, bit for bit, and the stack fails as its first failing
    market would alone."""

    @pytest.mark.parametrize("fig_id", ["fig3", "fig4"])
    def test_columns_equal_single_calls_bit_for_bit(self, fig_id):
        # fig4's stack holds the uniform law (its one-jump term split off)
        # and the tempered power tail (no split)
        markets, pay, xs, t_bar, spec = figure_stack(fig_id)
        families = {m.density.family for m in markets}
        assert fig_id == "fig3" or {Family.CONSTANT, Family.PARETO_HALF} <= families
        stacked = price_fourier(markets, pay, xs, t_bar, spec)
        assert isinstance(stacked, list) and len(stacked) == len(markets)
        for m, column in zip(markets, stacked):
            assert column.tobytes() == price_fourier(m, pay, xs, t_bar, spec).tobytes()

    def test_a_float_spot_gives_floats(self):
        markets, pay, _, t_bar, spec = figure_stack("fig4")
        stacked = price_fourier(markets, pay, math.log(92.0), t_bar, spec)
        assert [type(v) for v in stacked] == [float] * len(markets)
        assert stacked == [price_fourier(m, pay, math.log(92.0), t_bar, spec) for m in markets]

    def test_middle_market_failure_is_its_own(self):
        # at this budget the Gaussian fit prices, and the uniform and
        # exponential fits do not: the stack raises the uniform law's error
        pay = butterfly_payoff(100.0, 10.0)
        xs = np.log(cli._grid([86, 122, 13]))
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-10, max_nodes=1 << 12)
        markets = [fitted_market(f) for f in (Family.GAUSSIAN, Family.CONSTANT,
                                               Family.EXPONENTIAL, Family.LOGISTIC)]
        price_fourier(markets[0], pay, xs, T_BAR, spec)
        want = outcome(lambda: price_fourier(markets[1], pay, xs, T_BAR, spec))
        assert want[0] is AccuracyError
        assert outcome(lambda: price_fourier(markets, pay, xs, T_BAR, spec)) == want
        assert outcome(lambda: price_fourier(markets[::-1], pay, xs, T_BAR, spec)) \
            == outcome(lambda: price_fourier(markets[2], pay, xs, T_BAR, spec))

    def test_middle_market_tail_failure_is_its_own(self):
        # a bump in the payoff transform near w = 5000 lies in the decay
        # probe of rho = 5 only; rho = 20 integrates across it, and rho = 2
        # never samples it
        pay = butterfly_payoff(100.0, 10.0)
        bumpy = dataclasses.replace(
            pay, transform=lambda w: pay.transform(w) + 1e3 * np.exp(-(((w - 5000.0) / 50.0) ** 2)))
        markets = [MarketParams.from_rho_sigma(rho, R, 0.1) for rho in (2.0, 5.0, 20.0)]
        xs = np.log(cli._grid([80, 125, 19]))
        spec = QuadSpec(abs_tol=1e-6)
        for m in markets[::2]:
            price_fourier(m, bumpy, xs, T_BAR, spec)
        with pytest.raises(TailBoundError) as single:
            price_fourier(markets[1], bumpy, xs, T_BAR, spec)
        with pytest.raises(TailBoundError) as stacked:
            price_fourier(markets, bumpy, xs, T_BAR, spec)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.best is None and stacked.value.bound == single.value.bound

    @pytest.mark.parametrize("max_nodes", [1 << 10, 1 << 8])
    @pytest.mark.parametrize("fig_id", ["fig3", "fig4"])
    def test_small_budgets_keep_every_array_and_bit(self, monkeypatch, fig_id, max_nodes):
        # every array of a refinement call fits the budget: the nodes, the
        # slices x spots and the offset tables of the distinct panels, and
        # each model's nodes and slices x spots; so does every node array
        # handed to the shared and the model factors.  Each stack fails or
        # prices as its markets do alone, and a price keeps its
        # default-budget bits (a figure column's 32 x spots table exceeds
        # 2^8, so there a single spot prices)
        markets, pay, xs, t_bar, spec = figure_stack(fig_id)
        small = dataclasses.replace(spec, max_nodes=max_nodes)
        arrays = []
        inner, panels = fourier.integrate_real_line, numerics._phased_panels

        def counted(g, *args, factors, **kwargs):
            def recorded(w):
                arrays.append(np.size(w))
                return g(w)

            def model(factor):
                return lambda w, gw: (arrays.append(np.size(w)), factor(w, gw))[1]
            return inner(recorded, *args, factors=[model(f) for f in factors], **kwargs)

        def phased(g, lo, hi, slices, xs, factors, model=None):
            which = np.zeros(lo.size, dtype=int) if model is None else model
            geometries = set(zip(lo.tolist(), hi.tolist(), slices.tolist()))
            shared = sum(n for _, _, n in geometries)
            arrays.extend([32 * shared, shared * xs.size, 32 * len(geometries) * xs.size])
            arrays.extend(n * max(32, xs.size) for n in np.bincount(which, slices))
            return panels(g, lo, hi, slices, xs, factors, model)

        columns = (xs, xs[[6]])
        default = [outcome(lambda: price_fourier(markets, pay, x, t_bar, spec)) for x in columns]
        monkeypatch.setattr(fourier, "integrate_real_line", counted)
        monkeypatch.setattr(numerics, "_phased_panels", phased)
        for x, want in zip(columns, default):
            got = outcome(lambda: price_fourier(markets, pay, x, t_bar, small))
            singles = [outcome(lambda: price_fourier(m, pay, x, t_bar, small)) for m in markets]
            failed = [s for s in singles if not isinstance(s, list)]
            assert got == (failed[0] if failed else sum(singles, []))
            assert failed or got == want
        assert max(arrays) <= max_nodes

    def test_a_repeated_market_is_integrated_once(self):
        # every position a market holds gets its prices, in an array of its
        # own
        markets, pay, xs, t_bar, spec = figure_stack("fig4")
        once = price_fourier(markets, pay, xs, t_bar, spec)
        again = [dataclasses.replace(m) for m in markets[::2]]  # equal, not the same objects
        twice = price_fourier(markets + again, pay, xs, t_bar, spec)
        assert [c.tobytes() for c in twice] == [c.tobytes() for c in once + once[::2]]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(twice) for b in twice[:i])

    def test_a_repeated_market_fails_at_its_first_position(self):
        # the uniform fit fails at this budget; its error names the first
        # position it holds in the stack, not its place among distinct markets
        pay = butterfly_payoff(100.0, 10.0)
        xs = np.log(cli._grid([86, 122, 13]))
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-10, max_nodes=1 << 12)
        gaussian, uniform = fitted_market(Family.GAUSSIAN), fitted_market(Family.CONSTANT)
        alone = outcome(lambda: price_fourier(uniform, pay, xs, T_BAR, spec))
        for stack, first in (([gaussian, uniform, gaussian, uniform], 1),
                             ([gaussian, gaussian, uniform, uniform], 2)):
            with pytest.raises(AccuracyError) as exc:
                price_fourier(stack, pay, xs, T_BAR, spec)
            assert exc.value.index == first
            assert outcome(lambda: price_fourier(stack, pay, xs, T_BAR, spec)) == alone

    def test_a_failing_one_jump_average_fails_in_stack_order(self):
        # at a budget of one 32-node slice no integral takes its second
        # pass: the uniform law's one-jump average fails before any
        # integral, and the Gaussian law's integral fails, so a stack of
        # the two raises the error of whichever comes first
        pay = butterfly_payoff(100.0, 10.0)
        xs = np.log([98.0, 104.0])
        spec = QuadSpec(max_nodes=32)
        uniform, gaussian = fitted_market(Family.CONSTANT), fitted_market(Family.GAUSSIAN)
        alone = {m: outcome(lambda: price_fourier(m, pay, xs, T_BAR, spec))
                 for m in (uniform, gaussian)}
        assert alone[uniform][1].startswith("quadrature over")
        assert alone[gaussian][1].startswith("panel")
        for stack in ([uniform, gaussian], [gaussian, uniform]):
            assert outcome(lambda: price_fourier(stack, pay, xs, T_BAR, spec)) == alone[stack[0]]

    def test_empty_stack_and_empty_column(self):
        markets, pay, xs, t_bar, spec = figure_stack("fig3")
        assert price_fourier([], pay, xs, t_bar, spec) == []
        empty = price_fourier(markets, pay, np.empty(0), t_bar, spec)
        assert [col.shape for col in empty] == [(0,)] * len(markets)
        assert price_fourier(markets[0], pay, np.empty(0), t_bar, spec).shape == (0,)

    @pytest.mark.parametrize("families", [[], ["discrete"], ["gaussian", "exp", "gaussian"],
                                          ["pareto", "discrete", "pareto"],
                                          [*(f.value for f in Family), "exp", "gumbel"]], ids=str)
    def test_fig4_family_lists(self, tmp_path, families):
        # the CSV a call per column gives, and exit 0 from the meta line
        meta = dict(cli.FIGURES["fig4"][1], figure="fig4", families=families)
        pay = butterfly_payoff(meta["K"], meta["L"])
        grid = cli._grid(meta["grid"])
        spec = cli._spec(meta["tol"], cli.FOURIER_TOL)
        columns = {}
        for f in families:
            m = MarketParams.risk_neutral(meta["r"], fit_from_moments(Family(f), meta["mu1"],
                                                                      meta["mu2"]))
            price = price_two_point_exact if f == "discrete" else (
                lambda *args: price_fourier(*args, spec))
            columns[f] = price(m, pay, np.log(grid), meta["T"])
        want = cli._csv_body(cli._table(meta, "spot", grid, columns))
        assert cli._csv_body(cli.build_figure(meta=meta)) == want
        source, out = tmp_path / "meta.csv", tmp_path / "out.csv"
        cli.write_csv(cli.build_figure(meta=meta), str(source))
        assert cli.main(["fig", "--from-meta", str(source), "--out", str(out)]) == 0
        assert out.read_text() == source.read_text()
