"""Diffusion-limit reference formulas and implied-volatility inversion."""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ctrwpricer import (
    OutOfBandError,
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
