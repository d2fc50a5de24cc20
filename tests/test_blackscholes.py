"""Diffusion-limit reference formulas and implied-volatility inversion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctrwpricer import (
    InvalidParametersError,
    OutOfBandError,
    blackscholes,
    bs_binary_call,
    bs_binary_put,
    bs_vanilla_call,
    bs_vanilla_put,
    implied_vol,
    wiener_exercise_boundary,
    wiener_perpetual_put,
)


class TestBinary:
    def test_reference_at_the_money(self):
        val = bs_binary_call(1.0, 1.0, 0.04, 0.1, 0.25)
        assert abs(val - 0.56379395971152811) <= 1e-12

    def test_deep_in_the_money(self):
        assert abs(bs_binary_call(50.0, 1.0, 0.04, 0.1, 0.25)
                   - math.exp(-0.01)) <= 1e-12

    def test_expiry_limit(self):
        assert bs_binary_call(1.2, 1.0, 0.04, 0.1, 0.0) == 1.0
        assert bs_binary_call(0.8, 1.0, 0.04, 0.1, 0.0) == 0.0

    @given(st.floats(0.5, 2.0), st.floats(0.01, 1.0), st.floats(0.05, 2.0))
    def test_binary_parity(self, s, t, sigma):
        call = bs_binary_call(s, 1.0, 0.04, sigma, t)
        put = bs_binary_put(s, 1.0, 0.04, sigma, t)
        assert abs(call + put - math.exp(-0.04 * t)) <= 1e-12


class TestVanilla:
    def test_reference_at_the_money(self):
        assert abs(bs_vanilla_call(100.0, 100.0, 0.0, 0.2, 1.0)
                   - 7.9655674554057963) <= 1e-10

    def test_expiry_limit(self):
        assert bs_vanilla_call(110.0, 100.0, 0.04, 0.2, 0.0) == 10.0
        assert bs_vanilla_call(90.0, 100.0, 0.04, 0.2, 0.0) == 0.0

    def test_deep_in_the_money_asymptote(self):
        val = bs_vanilla_call(1e4, 100.0, 0.04, 0.2, 1.0)
        assert abs(val - (1e4 - 100.0 * math.exp(-0.04))) <= 1e-8

    @pytest.mark.parametrize("price", [bs_vanilla_call, bs_binary_call])
    @pytest.mark.parametrize("spot, strike, sigma, T, message", [
        (0.0, 1.0, 0.2, 0.25, "spot and strike"), (1.0, -1.0, 0.2, 0.25, "spot and strike"),
        (1.0, 1.0, 0.0, 0.25, "sigma"), (1.0, 1.0, 0.2, -1.0, "sigma"),
    ])
    def test_invalid_inputs_raise(self, price, spot, strike, sigma, T, message):
        with pytest.raises(InvalidParametersError, match=message):
            price(spot, strike, 0.04, sigma, T)

    @pytest.mark.parametrize("price", [bs_vanilla_call, bs_binary_call, bs_vanilla_put,
                                       bs_binary_put])
    @pytest.mark.parametrize("T", [0.25, 0.0])  # expiry is checked too
    @pytest.mark.parametrize("slot, message", [
        (0, "spot and strike"), (1, "spot and strike"), (2, "rate"), (3, "sigma"), (4, "sigma"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_raise(self, price, T, slot, message, bad):
        args = [1.0, 1.0, 0.04, 0.2, T]
        args[slot] = bad
        with pytest.raises(InvalidParametersError, match=message):
            price(*args)

    @pytest.mark.parametrize("price", [bs_vanilla_call, bs_binary_call])
    @pytest.mark.parametrize("spot, strike, sigma", [(1.0, 1.0, -0.2), (0.0, 1.0, 0.2),
                                                     (1.0, -1.0, 0.2), (1.0, 1.0, 0.0)])
    def test_expiry_checks_its_inputs(self, price, spot, strike, sigma):
        with pytest.raises(InvalidParametersError):
            price(spot, strike, 0.04, sigma, 0.0)

    def test_expiry_value_is_a_float(self):
        assert type(bs_vanilla_call(1, 1, 0.04, 0.2, 0)) is float

    @settings(max_examples=80)
    @given(st.floats(50.0, 200.0), st.floats(0.01, 2.0), st.floats(0.05, 1.5))
    def test_vanilla_parity(self, s, t, sigma):
        call = bs_vanilla_call(s, 100.0, 0.04, sigma, t)
        put = bs_vanilla_put(s, 100.0, 0.04, sigma, t)
        assert abs(call - put - (s - 100.0 * math.exp(-0.04 * t))) <= 1e-10


class TestImpliedVol:
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 0.5, 1.0])
    def test_round_trip(self, sigma):
        price = bs_vanilla_call(1.05, 1.0, 0.04, sigma, 0.25)
        assert abs(implied_vol(price, 1.05, 1.0, 0.04, 0.25) - sigma) <= 1e-9

    @pytest.mark.parametrize("spot, T, sigma", [
        (0.5, 0.25, 0.3),     # deep out of the money
        (0.3, 5.0, 0.2),
        (2.0, 0.25, 0.3),     # deep in the money
        (3.0, 1.0, 0.2),
        (1.0, 1e-4, 0.2),     # short expiry
        (0.97, 1e-3, 0.1),
        (1.05, 1e-4, 0.8),
    ])
    def test_round_trip_where_vega_is_tiny(self, spot, T, sigma):
        price = bs_vanilla_call(spot, 1.0, 0.04, sigma, T)
        iv = implied_vol(price, spot, 1.0, 0.04, T)
        assert abs(bs_vanilla_call(spot, 1.0, 0.04, iv, T) - price) <= 1e-10
        # sigma is recoverable only up to the price's rounding over the vega
        d1 = (math.log(spot) + (0.04 + 0.5 * sigma * sigma) * T) / (sigma * math.sqrt(T))
        vega = spot * math.sqrt(T) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
        assert abs(iv - sigma) <= 1e-9 + 1e-15 * max(price, 1.0) / vega

    def test_subnormal_vega_takes_bisection_step(self):
        # the Newton step here divides by a subnormal vega and overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = implied_vol(2.156638760748209, 2.9753694783052795, 1.0, 0.04, 5.0)
        assert sigma == 0.11758041603806982

    @staticmethod
    def counted_cdf(monkeypatch):
        calls = []
        inner = blackscholes.normal_cdf

        def counted(z):
            calls.append(z)
            return inner(z)
        monkeypatch.setattr(blackscholes, "normal_cdf", counted)
        return calls

    def test_newton_stops_at_the_residual_floor(self, monkeypatch):
        # the residual reaches the price's rounding floor, 1.1e-16, where
        # the vega of 2.5e-4 turns it into steps of 4.5e-13 between two
        # sigmas: the solve ran all 100 iterations, 206 cdf calls
        price = bs_vanilla_call(1.19, 1.0, 0.04, 0.1, 0.25)
        calls = self.counted_cdf(monkeypatch)
        sigma = implied_vol(price, 1.19, 1.0, 0.04, 0.25)
        assert len(calls) <= 30
        assert abs(sigma - 0.1) <= 1e-12
        assert abs(bs_vanilla_call(1.19, 1.0, 0.04, sigma, 0.25) - price) <= 2e-16

    def test_deep_out_of_the_money_price_steps_in_logs(self, monkeypatch):
        # a price of 2.9e-55: a Newton step on the price cuts its log by
        # about 1, so the solve hit the 100-iteration cap 0.03 above sigma
        price = bs_vanilla_call(0.467, 1.0, 0.04, 0.5, 0.01)
        calls = self.counted_cdf(monkeypatch)
        sigma = implied_vol(price, 0.467, 1.0, 0.04, 0.01)
        assert len(calls) <= 30
        assert abs(sigma - 0.5) <= 1e-12

    def test_zero_price_is_the_band_floor(self, monkeypatch):
        calls = self.counted_cdf(monkeypatch)
        assert implied_vol(0.0, 0.35, 1.0, 0.04, 0.01) == 1e-4
        assert len(calls) == 4  # the band's two ends

    @pytest.mark.parametrize("spot, strike, T, message", [
        (1.0, 1.0, 0.0, "T must be positive"), (1.0, 1.0, -1.0, "T must be positive"),
        (0.0, 1.0, 0.25, "spot and strike"), (1.0, -1.0, 0.25, "spot and strike"),
    ])
    def test_invalid_inputs_raise(self, spot, strike, T, message):
        with pytest.raises(InvalidParametersError, match=message):
            implied_vol(0.05, spot, strike, 0.04, T)

    def test_band_edges_rejected(self):
        intrinsic = 1.05 - math.exp(-0.01)
        with pytest.raises(OutOfBandError):
            implied_vol(intrinsic - 1e-6, 1.05, 1.0, 0.04, 0.25)
        with pytest.raises(OutOfBandError):
            implied_vol(1.06, 1.05, 1.0, 0.04, 0.25)

    @pytest.mark.parametrize("spot", [0.3, 3.0])
    def test_flat_band_rejected(self, spot):
        # at T = 1e-4 the price moves by less than 1e-10 * K over the whole
        # sigma band, so no vol is implied (0.3 used to return 2.50005)
        price = bs_vanilla_call(spot, 1.0, 0.04, 0.2, 1e-4)
        with pytest.raises(OutOfBandError, match="flat"):
            implied_vol(price, spot, 1.0, 0.04, 1e-4)

    def test_near_lower_edge_vanishing_vol(self):
        intrinsic = 1.05 - math.exp(-0.01)
        near = implied_vol(intrinsic + 1e-10, 1.05, 1.0, 0.04, 0.25)
        nearer = implied_vol(intrinsic + 1e-14, 1.05, 1.0, 0.04, 0.25)
        assert nearer < near < 0.05


def float_outcome(price, spot, T):
    """The float solve's vol, or None where it raises OutOfBandError."""
    try:
        return implied_vol(price, spot, 1.0, 0.04, T)
    except OutOfBandError:
        return None


# the hard cases of the float solve, grouped by expiry since a call shares
# one T: (price, spot) pairs
HARD_CASES = {
    5.0: [
        (2.156638760748209, 2.9753694783052795),  # subnormal vega, bisection
        (bs_vanilla_call(0.3, 1.0, 0.04, 0.2, 5.0), 0.3),
        (bs_vanilla_call(1.0, 1.0, 0.04, 0.05, 5.0), 1.0),
        (bs_vanilla_call(2.0, 1.0, 0.04, 1e-4, 5.0), 2.0),  # the band's ends
        (bs_vanilla_call(2.0, 1.0, 0.04, 5.0, 5.0), 2.0),
        (bs_vanilla_call(2.0, 1.0, 0.04, 1e-4, 5.0) - 1e-6, 2.0),  # just outside
        (bs_vanilla_call(2.0, 1.0, 0.04, 5.0, 5.0) + 1e-6, 2.0),
        (math.nan, 1.0),
        # deep in the money the price's rounding, 1.9e-9, passes the
        # 1e-10 * K residual gate: the last refuses, the first prices
        (1e7 - 0.65, 1e7),
        (1e7 - 0.7, 1e7),
    ],
    0.25: [
        (bs_vanilla_call(1.19, 1.0, 0.04, 0.1, 0.25), 1.19),  # residual floor
        (1.05 - math.exp(-0.01) - 1e-6, 1.05),  # below intrinsic
        (1.05 - math.exp(-0.01) + 1e-14, 1.05),  # vanishing vol
        (1.06, 1.05),  # above the spot
        *[(bs_vanilla_call(1.05, 1.0, 0.04, sigma, 0.25), 1.05)
          for sigma in (0.05, 0.1, 0.2, 0.5, 1.0)],
    ],
    0.01: [
        (bs_vanilla_call(0.467, 1.0, 0.04, 0.5, 0.01), 0.467),  # log steps
        (0.0, 0.35),  # zero price
        (bs_vanilla_call(0.97, 1.0, 0.04, 0.1, 0.01), 0.97),
        (math.nan, 0.97),
    ],
    1e-4: [
        (bs_vanilla_call(0.3, 1.0, 0.04, 0.2, 1e-4), 0.3),  # flat bands
        (bs_vanilla_call(3.0, 1.0, 0.04, 0.2, 1e-4), 3.0),
        (bs_vanilla_call(1.0, 1.0, 0.04, 0.2, 1e-4), 1.0),
        (bs_vanilla_call(1.05, 1.0, 0.04, 0.8, 1e-4), 1.05),
    ],
}


class TestImpliedVolArray:
    """Arrays of prices and spots are solved cell by cell by the float
    loop's rules in one array loop; NaN stands where a float call raises."""

    @pytest.mark.parametrize("T", sorted(HARD_CASES))
    def test_cells_match_the_float_solve(self, T):
        prices, spots = (np.array(v) for v in zip(*HARD_CASES[T]))
        vols = implied_vol(prices, spots, 1.0, 0.04, T)
        assert vols.shape == prices.shape
        for price, spot, iv in zip(prices.tolist(), spots.tolist(), vols.tolist()):
            want = float_outcome(price, spot, T)
            assert math.isnan(iv) == (want is None), (price, spot)
            if want is None:
                continue
            assert abs(bs_vanilla_call(spot, 1.0, 0.04, iv, T) - price) <= 1e-10
            # both solves stop where the price's rounding over the vega hides sigma
            d1 = (math.log(spot) + (0.04 + 0.5 * want * want) * T) / (want * math.sqrt(T))
            vega = spot * math.sqrt(T) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
            assert vega == 0.0 or abs(iv - want) <= 1e-12 + 1e-15 * max(price, 1.0) / vega

    @pytest.mark.parametrize("T", sorted(HARD_CASES))
    def test_each_cell_costs_its_float_solve(self, monkeypatch, T):
        # the array loop evaluates normal_cdf on the cells still solving
        # only, so it costs what the float solves cost together, and it
        # stops before the 100-iteration cap: 2 band prices, then one price
        # per iteration and the final residual's, two cdf calls each
        prices, spots = zip(*HARD_CASES[T])
        calls = TestImpliedVol.counted_cdf(monkeypatch)
        for price, spot in zip(prices, spots):
            float_outcome(price, spot, T)
        per_float = sum(np.size(z) for z in calls)
        calls.clear()
        implied_vol(np.array(prices), np.array(spots), 1.0, 0.04, T)
        assert sum(np.size(z) for z in calls) == per_float
        assert (len(calls) - 6) // 2 < 100

    def test_shape_is_kept(self):
        # a table of prices against a row of spots, broadcast
        spots = np.array([0.9, 1.0, 1.1, 1.2])
        prices = np.array([[bs_vanilla_call(s, 1.0, 0.04, sigma, 0.5) for s in spots]
                           for sigma in (0.1, 0.3, 0.9)])
        vols = implied_vol(prices, spots, 1.0, 0.04, 0.5)
        assert vols.shape == (3, 4)
        assert np.allclose(vols, [[0.1], [0.3], [0.9]], rtol=0, atol=1e-9)
        one = implied_vol(np.array(prices[1, 2]), 1.1, 1.0, 0.04, 0.5)
        assert one.shape == () and abs(one - 0.3) <= 1e-9
        assert implied_vol(np.empty((0, 4)), spots, 1.0, 0.04, 0.5).shape == (0, 4)

    def test_floats_take_the_float_loop(self):
        price = bs_vanilla_call(1.05, 1.0, 0.04, 0.2, 0.25)
        assert type(implied_vol(price, 1.05, 1.0, 0.04, 0.25)) is float
        assert type(implied_vol(np.float64(price), 1.05, 1.0, 0.04, 0.25)) is float

    @pytest.mark.parametrize("spot, strike, T", [
        ([1.0, 0.0], 1.0, 0.25), ([1.0, -1.0], 1.0, 0.25), ([1.0, 1.1], 0.0, 0.25),
        ([1.0, 1.1], 1.0, 0.0), ([1.0, 1.1], 1.0, -1.0),
    ])
    def test_invalid_inputs_raise(self, spot, strike, T):
        with pytest.raises(InvalidParametersError):
            implied_vol(np.array([0.05, 0.1]), np.array(spot), strike, 0.04, T)


class TestWienerPerpetual:
    def test_boundary_reference(self):
        assert abs(wiener_exercise_boundary(1.0, 0.04, 0.1)
                   - 0.08 / 0.09) <= 1e-15

    def test_value_matching(self):
        zs = wiener_exercise_boundary(1.0, 0.04, 0.1)
        val = wiener_perpetual_put(zs, 1.0, 0.04, 0.1)
        assert abs(val - (1.0 - zs)) <= 1e-12

    def test_exercise_region(self):
        assert abs(wiener_perpetual_put(0.5, 1.0, 0.04, 0.1) - 0.5) <= 1e-15

    def test_high_rate_limit(self):
        assert wiener_exercise_boundary(1.0, 100.0, 0.1) > 0.9999
        assert wiener_perpetual_put(1.0, 1.0, 100.0, 0.1) < 1e-4

    def test_decay_rate(self):
        # log-slope of the continuation value is -2r/sigma^2
        r, sigma = 0.04, 0.1
        p1 = wiener_perpetual_put(1.00, 1.0, r, sigma)
        p2 = wiener_perpetual_put(1.02, 1.0, r, sigma)
        slope = (math.log(p2) - math.log(p1)) / (math.log(1.02) - math.log(1.00))
        assert abs(slope + 2.0 * r / sigma**2) <= 1e-9
