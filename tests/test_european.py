"""Tests for European pricing under the two-sided exponential jump law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrwpricer import (
    Contract,
    Family,
    JumpDensity,
    MarketParams,
    OptionStyle,
    PayoffKind,
    PriceMethod,
    european_price,
    gamma_for_sigma,
)
from ctrwpricer.blackscholes import bs_binary_call, bs_vanilla_call
from ctrwpricer.errors import InvalidParametersError
from ctrwpricer.european import (
    beta_pm,
    binary_call_laplace,
    binary_call_price,
    log_return_moments,
    no_trade_vanilla_call,
    put_price_from_parity,
    vanilla_call_laplace,
    vanilla_call_price,
)

R = 0.04
T_BAR = 0.25
DISC = math.exp(-R * T_BAR)


def wiener_model(rho: float) -> MarketParams:
    """Model on the diffusion-limit slice gamma = rho - 1 + 2r/sigma^2."""
    return MarketParams.from_rho_sigma(rho, R, 0.1)


class TestModel:
    def test_risk_neutral_intensity(self, de_model):
        assert de_model.lam == pytest.approx(0.05, abs=1e-15)
        assert de_model.is_risk_neutral
        assert de_model.exponential_rates() == (2.0, 9.0)

    def test_gamma_for_sigma(self):
        assert gamma_for_sigma(2000.0, 0.04, 0.1) == pytest.approx(2007.0, abs=1e-9)
        with pytest.raises(InvalidParametersError):
            gamma_for_sigma(2.0, 0.04, 0.0)
        with pytest.raises(InvalidParametersError):
            gamma_for_sigma(2.0, 0.0, 0.1)

    def test_admissibility_band(self):
        with pytest.raises(InvalidParametersError):
            MarketParams.exponential(1.0, 9.0, R)
        with pytest.raises(InvalidParametersError):
            MarketParams.exponential(10.0, 5.0, R)
        with pytest.raises(InvalidParametersError):
            MarketParams.exponential(2.0, 9.0, 0.0)
        with pytest.raises(InvalidParametersError):
            MarketParams.exponential(2.0, 9.0, R, -1.0)

    def test_intensity_override_is_not_risk_neutral(self):
        m = MarketParams.exponential(2.0, 9.0, R, 0.2)
        assert m.lam == 0.2
        assert not m.is_risk_neutral


class TestContract:
    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            Contract(PayoffKind.BINARY_CALL, 0.0, 1.0)
        with pytest.raises(InvalidParametersError):
            Contract(PayoffKind.BINARY_CALL, 1.0, -0.5)
        with pytest.raises(InvalidParametersError):
            Contract(PayoffKind.PORTFOLIO, 1.0, 1.0)

    def test_butterfly_payoff_is_negative_tent(self):
        c = Contract(PayoffKind.PORTFOLIO, 100.0, 0.25, width=10.0)
        s = np.linspace(80.0, 130.0, 501)
        vals = c.payoff(np.log(s))
        assert np.all(vals <= 1e-12)
        assert c.payoff(math.log(105.0)) == pytest.approx(-5.0, abs=1e-12)
        assert c.payoff(math.log(100.0)) == pytest.approx(0.0, abs=1e-12)
        assert c.payoff(math.log(110.0)) == pytest.approx(0.0, abs=1e-12)


class TestCharacteristicRoots:
    def test_large_s_limit(self, de_model):
        bp, bm = beta_pm(de_model, 1e12)
        assert complex(bp) == pytest.approx(2.0, abs=1e-8)
        assert complex(bm) == pytest.approx(-9.0, abs=1e-8)

    def test_roots_at_s_zero(self, de_model):
        bp, bm = beta_pm(de_model, 0.0)
        assert complex(bp) == pytest.approx(1.0, abs=1e-12)
        assert complex(bm) == pytest.approx(-8.0, abs=1e-12)
        assert complex(bp * bm) == pytest.approx(-8.0, abs=1e-11)

    def test_sign_split(self, de_model):
        for s in (0.0, 0.3, 2.0, 50.0):
            bp, bm = beta_pm(de_model, s)
            assert bp.real >= 0.0
            assert bm.real <= 0.0

    @given(
        re=st.floats(min_value=0.0, max_value=1e4),
        im=st.floats(min_value=-1e4, max_value=1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_vieta_identities(self, re, im):
        m = MarketParams.exponential(2.0, 9.0, R)
        s = complex(re, im)
        bp, bm = beta_pm(m, s)
        bp, bm = complex(bp), complex(bm)
        assert bp + bm == pytest.approx(-(9.0 - 2.0), abs=1e-9)
        prod = -9.0 * 2.0 * (m.r + s) / (m.lam + m.r + s)
        assert bp * bm == pytest.approx(prod, rel=1e-9, abs=1e-9)

    def test_vectorised_matches_scalar(self, de_model):
        s = np.array([0.1, 1.0, 10.0])
        bp, bm = beta_pm(de_model, s)
        for i, si in enumerate(s):
            bpi, bmi = beta_pm(de_model, si)
            assert bp[i] == pytest.approx(complex(bpi), rel=1e-14)
            assert bm[i] == pytest.approx(complex(bmi), rel=1e-14)


class TestLaplaceDomain:
    def test_binary_deep_out_vanishes(self, de_model):
        val = binary_call_laplace(de_model, 0.0, -40.0, 0.7)
        assert abs(complex(val)) < 1e-12

    def test_binary_deep_in_discount_pole(self, de_model):
        val = binary_call_laplace(de_model, 0.0, 40.0, 0.7)
        assert complex(val) == pytest.approx(1.0 / (R + 0.7), abs=1e-12)

    def test_binary_jump_at_strike(self, de_model):
        # the discontinuity of the transform at x = k is 1/(lam + r + s),
        # the transform of the stays-put atom e^{-(lam+r) t}
        s = 0.7
        jump = binary_call_laplace(de_model, 0.0, 0.0, s) \
            - binary_call_laplace(de_model, 0.0, -1e-13, s)
        assert complex(jump) == pytest.approx(1.0 / (de_model.lam + R + s), abs=1e-10)

    def test_vanilla_deep_out_vanishes(self, de_model):
        val = vanilla_call_laplace(de_model, 1.0, -40.0, 0.7)
        assert abs(complex(val)) < 1e-12

    def test_vanilla_deep_in_forward_poles(self, de_model):
        s = 0.7
        x = 40.0
        val = vanilla_call_laplace(de_model, 1.0, x, s)
        expected = math.exp(x) / s - 1.0 / (R + s)
        assert complex(val) == pytest.approx(expected, rel=1e-12)


class TestBinaryPrice:
    def test_expiry_indicator(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, 0.0)
        for method in (PriceMethod.CLOSED, PriceMethod.LAPLACE):
            assert binary_call_price(de_model, c, -0.1, method) == 0.0
            assert binary_call_price(de_model, c, 0.0, method) == 1.0
            assert binary_call_price(de_model, c, 0.1, method) == 1.0

    def test_deep_in_the_money_discount_bond(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        price = binary_call_price(de_model, c, 10.0)
        assert price == pytest.approx(DISC, abs=1e-9)

    def test_deep_out_of_the_money(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        price = binary_call_price(de_model, c, -10.0)
        assert 0.0 <= price < 1e-9

    def test_bounds_and_monotonicity(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        xs = np.linspace(-0.5, 0.5, 21)
        prices = [binary_call_price(de_model, c, x) for x in xs]
        assert all(-1e-12 <= p <= DISC + 1e-12 for p in prices)
        assert all(b - a >= -1e-10 for a, b in zip(prices, prices[1:]))

    def test_closed_matches_laplace(self, de_model):
        for t_bar in (0.1, 1.0):
            c = Contract(PayoffKind.BINARY_CALL, 1.0, t_bar)
            for x in (-0.1, 0.0, 0.1):
                closed = binary_call_price(de_model, c, x, PriceMethod.CLOSED)
                laplace = binary_call_price(de_model, c, x, PriceMethod.LAPLACE)
                assert closed == pytest.approx(laplace, abs=1e-7)

    def test_frequent_jump_limit_is_gaussian(self):
        m = wiener_model(2000.0)
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        price = binary_call_price(m, c, 0.0)
        assert price == pytest.approx(bs_binary_call(1.0, 1.0, R, 0.1, T_BAR), abs=5e-3)

    def test_unsupported_method(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        with pytest.raises(InvalidParametersError):
            binary_call_price(de_model, c, 0.0, PriceMethod.FOURIER)


class TestVanillaPrice:
    def test_expiry_payoff(self, de_model):
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, 0.0)
        for method in (PriceMethod.CLOSED, PriceMethod.LAPLACE):
            assert vanilla_call_price(de_model, c, -0.2, method) == 0.0
            got = vanilla_call_price(de_model, c, 0.2, method)
            assert got == pytest.approx(math.exp(0.2) - 1.0, abs=1e-15)

    def test_bounds_and_monotonicity(self, de_model):
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
        xs = np.linspace(-0.5, 0.5, 21)
        prices = [vanilla_call_price(de_model, c, x) for x in xs]
        for x, p in zip(xs, prices):
            assert max(math.exp(x) - DISC, 0.0) - 1e-9 <= p <= math.exp(x) + 1e-12
        assert all(b - a >= -1e-10 for a, b in zip(prices, prices[1:]))

    def test_deep_in_the_money_forward(self, de_model):
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
        x = 5.0
        price = vanilla_call_price(de_model, c, x)
        assert price == pytest.approx(math.exp(x) - DISC, abs=1e-6)

    def test_closed_matches_laplace(self, de_model):
        for strike in (1.0, 100.0):
            c = Contract(PayoffKind.VANILLA_CALL, strike, 1.0)
            for moneyness in (0.9, 1.0, 1.1):
                x = math.log(strike * moneyness)
                closed = vanilla_call_price(de_model, c, x, PriceMethod.CLOSED)
                laplace = vanilla_call_price(de_model, c, x, PriceMethod.LAPLACE)
                assert abs(closed - laplace) < 1e-6 * max(1.0, strike)

    def test_no_trade_limit(self):
        m = MarketParams.exponential(1.0 + 1e-6, gamma_for_sigma(1.0 + 1e-6, R, 0.1), R)
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
        x = math.log(1.05)
        limit = no_trade_vanilla_call(1.0, x, T_BAR, R)
        assert limit == pytest.approx(0.059950166250831946, abs=1e-15)
        assert vanilla_call_price(m, c, x) == pytest.approx(limit, abs=1e-4)

    def test_no_trade_out_of_the_money_branch(self):
        x = math.log(0.9)
        limit = no_trade_vanilla_call(1.0, x, T_BAR, R)
        assert limit == pytest.approx(0.9 * (1.0 - DISC), abs=1e-15)

    def test_limit_sandwich(self):
        # prices track the band between the never-trades-again curve and the
        # continuous-trading (Black-Scholes) curve; the band is exceeded by
        # up to 5.2e-4 near the money, so the sandwich holds to plot accuracy
        # only
        for rho in (2.0, 5.0, 20.0):
            m = wiener_model(rho)
            c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
            for spot in np.linspace(0.9, 1.1, 15):
                x = math.log(spot)
                price = vanilla_call_price(m, c, x)
                nt = no_trade_vanilla_call(1.0, x, T_BAR, R)
                bs = bs_vanilla_call(spot, 1.0, R, 0.1, T_BAR)
                assert min(nt, bs) - 1e-3 <= price <= max(nt, bs) + 1e-3

    def test_approach_to_gaussian_prices(self):
        spots = (0.95, 1.0, 1.05)
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)

        def sup_gap(rho):
            m = wiener_model(rho)
            return max(
                abs(vanilla_call_price(m, c, math.log(s))
                    - bs_vanilla_call(s, 1.0, R, 0.1, T_BAR))
                for s in spots
            )

        assert sup_gap(200.0) < sup_gap(20.0)


class TestParity:
    def test_binary_deep_in_gives_zero_put(self):
        put = put_price_from_parity(DISC, PayoffKind.BINARY_CALL, 0.0, 1.0, R, T_BAR)
        assert put == 0.0

    def test_vanilla_parity_pivot(self):
        x = math.log(DISC)
        put = put_price_from_parity(0.123, PayoffKind.VANILLA_PUT, x, 1.0, R, T_BAR)
        assert put == pytest.approx(0.123, abs=1e-15)

    def test_vanilla_at_the_money_shift(self, de_model):
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
        call = vanilla_call_price(de_model, c, 0.0)
        put = put_price_from_parity(call, PayoffKind.VANILLA_CALL, 0.0, 1.0, R, T_BAR)
        assert put == pytest.approx(call - (1.0 - DISC), abs=1e-15)

    def test_no_relation_for_butterflies(self):
        with pytest.raises(InvalidParametersError):
            put_price_from_parity(0.1, PayoffKind.PORTFOLIO, 0.0, 1.0, R, T_BAR)

    def test_cross_method_binary_parity(self, de_model):
        c = Contract(PayoffKind.BINARY_CALL, 1.0, T_BAR)
        for x in (-0.1, 0.0, 0.1):
            call_closed = binary_call_price(de_model, c, x, PriceMethod.CLOSED)
            put = put_price_from_parity(call_closed, PayoffKind.BINARY_PUT,
                                        x, 1.0, R, T_BAR)
            call_laplace = binary_call_price(de_model, c, x, PriceMethod.LAPLACE)
            assert abs(put + call_laplace - DISC) < 1e-6

    def test_cross_method_vanilla_parity(self, de_model):
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, T_BAR)
        for x in (-0.1, 0.0, 0.1):
            call_closed = vanilla_call_price(de_model, c, x, PriceMethod.CLOSED)
            put = put_price_from_parity(call_closed, PayoffKind.VANILLA_PUT,
                                        x, 1.0, R, T_BAR)
            call_laplace = vanilla_call_price(de_model, c, x, PriceMethod.LAPLACE)
            assert abs(put - call_laplace - (DISC - math.exp(x))) < 1e-6


class TestEuropeanDispatch:
    def test_puts_via_parity(self, de_model):
        for kind, parity in (
            (PayoffKind.BINARY_PUT, PayoffKind.BINARY_CALL),
            (PayoffKind.VANILLA_PUT, PayoffKind.VANILLA_CALL),
        ):
            c = Contract(kind, 1.0, T_BAR)
            call = european_price(de_model, Contract(parity, 1.0, T_BAR), 0.05)
            want = put_price_from_parity(call, kind, 0.05, 1.0, R, T_BAR)
            assert european_price(de_model, c, 0.05) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_european_style(self, de_model):
        c = Contract(PayoffKind.BINARY_PUT, 1.0, T_BAR, style=OptionStyle.AMERICAN)
        with pytest.raises(InvalidParametersError):
            european_price(de_model, c, 0.0)

    def test_rejects_butterflies(self, de_model):
        c = Contract(PayoffKind.PORTFOLIO, 1.0, T_BAR, width=0.1)
        with pytest.raises(InvalidParametersError):
            european_price(de_model, c, 0.0)


class TestLogReturnMoments:
    def test_zero_horizon(self, de_model):
        assert log_return_moments(de_model, 0.0) == (0.0, 0.0)

    def test_reference_model_one_year(self, de_model):
        m1, m2 = log_return_moments(de_model, 1.0)
        assert m1 == pytest.approx(0.019444444444444444, abs=1e-15)
        assert m2 == pytest.approx(0.020679012345679012, abs=1e-15)

    def test_negative_horizon_rejected(self, de_model):
        with pytest.raises(InvalidParametersError):
            log_return_moments(de_model, -1.0)

    def test_any_jump_law(self):
        # lam dt (E[J], E[J^2]) for a Gaussian law of mean 1e-3, std 1e-2
        m = MarketParams.risk_neutral(R, JumpDensity(Family.GAUSSIAN, 1e-3, 1e-2))
        m1, m2 = log_return_moments(m, 0.5)
        assert m1 == pytest.approx(0.5 * m.lam * 1e-3, rel=1e-14)
        assert m2 == pytest.approx(0.5 * m.lam * (1e-4 + 1e-6), rel=1e-14)

    def test_frequent_jump_limit_matches_diffusion(self):
        m = wiener_model(2000.0)
        m1, m2 = log_return_moments(m, 1.0)
        assert m1 == pytest.approx(R - 0.5 * 0.01, abs=1e-4)
        assert m2 == pytest.approx(0.01, abs=2e-4)
