"""Tests for American binary puts and perpetual puts."""

import math

import numpy as np
import pytest

from ctrwpricer import MarketParams, PriceMethod, american
from ctrwpricer.american import (
    binary_put_closed,
    binary_put_laplace,
    binary_put_price,
    perpetual_binary_put,
    perpetual_exercise_boundary,
    perpetual_vanilla_put,
    solve_boundary_numeric,
    solve_trigger_numeric,
    vanilla_exercise_trigger,
)
from ctrwpricer.blackscholes import wiener_exercise_boundary, wiener_perpetual_put
from ctrwpricer.errors import AccuracyError, InvalidParametersError
from ctrwpricer.montecarlo import MCConfig, price_american_binary_put_mc
from ctrwpricer.numerics import QuadSpec

R = 0.04

# perpetual binary put of the reference model at x - k = 0.1:
# (rho-1)/gamma * exp(-8/10)
PERP_AT_TENTH = 0.049925440457469066


class TestBinaryPutLaplace:
    def test_exercised_region_is_cash_transform(self, de_model):
        for x in (-0.5, -0.1, 0.0):
            val = binary_put_laplace(de_model, 0.0, x, 0.37)
            assert complex(val) == pytest.approx(1.0 / 0.37, abs=1e-15)

    def test_vanishes_far_above_strike(self, de_model):
        val = binary_put_laplace(de_model, 0.0, 40.0, 0.37)
        assert abs(complex(val)) < 1e-12

    def test_small_s_limit_is_perpetual(self, de_model):
        # s * transform at s -> 0 recovers the infinite-horizon value
        s = 1e-9
        for dx in (0.01, 0.1, 0.5):
            lim = s * complex(binary_put_laplace(de_model, 0.0, dx, s))
            perp = perpetual_binary_put(de_model, 0.0, dx)
            assert abs(lim - perp) < 1e-6


class TestBinaryPutPrice:
    def test_exercised_region(self, de_model):
        for method in ("laplace", "closed"):
            assert binary_put_price(de_model, 0.0, -0.2, 0.25, method) == 1.0
            assert binary_put_price(de_model, 0.0, 0.0, 0.25, method) == 1.0

    def test_no_time_no_crossing(self, de_model):
        for method in ("laplace", "closed"):
            assert binary_put_price(de_model, 0.0, 0.1, 0.0, method) == 0.0

    def test_bounds_and_monotone_in_x(self, de_model):
        xs = np.linspace(0.01, 1.0, 20)
        prices = [binary_put_price(de_model, 0.0, x, 0.25) for x in xs]
        assert all(0.0 <= p <= 1.0 for p in prices)
        assert all(a - b >= -1e-10 for a, b in zip(prices, prices[1:]))

    def test_monotone_in_horizon(self, de_model):
        ts = (0.1, 0.5, 2.0, 10.0)
        prices = [binary_put_price(de_model, 0.0, 0.2, t) for t in ts]
        assert all(b - a >= -1e-10 for a, b in zip(prices, prices[1:]))

    def test_closed_matches_laplace(self, de_model):
        for t_bar in (0.1, 1.0, 5.0):
            for dx in (0.05, 0.2, 0.5):
                closed = binary_put_price(de_model, 0.0, dx, t_bar, PriceMethod.CLOSED)
                laplace = binary_put_price(de_model, 0.0, dx, t_bar, PriceMethod.LAPLACE)
                assert abs(closed - laplace) < 1e-6

    def test_method_vocabulary(self, de_model):
        # the PriceMethod of european_price, or its value
        for method in PriceMethod.CLOSED, PriceMethod.LAPLACE:
            assert binary_put_price(de_model, 0.0, 0.2, 1.0, method) \
                == binary_put_price(de_model, 0.0, 0.2, 1.0, method.value)
        for method in (PriceMethod.FOURIER, "fourier", "mc", None):
            with pytest.raises(InvalidParametersError):
                binary_put_price(de_model, 0.0, 0.2, 1.0, method)

    def test_dominated_by_perpetual_with_shrinking_gap(self, de_model):
        perp = perpetual_binary_put(de_model, 0.0, 0.1)
        gaps = [perp - binary_put_price(de_model, 0.0, 0.1, t)
                for t in (0.5, 2.0, 10.0, 50.0)]
        assert all(g >= -1e-10 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_long_horizon_reaches_perpetual(self, de_model):
        price = binary_put_price(de_model, 0.0, 0.1, 200.0)
        assert price == pytest.approx(PERP_AT_TENTH, abs=1e-6)

    def test_decay_steepens_with_jump_frequency(self):
        # all three models share the same perpetual decay rate (epsilon = 8);
        # at fixed t_bar the spatial decay gets steeper as jumps become more
        # frequent and smaller
        slopes = []
        for rho in (2.0, 5.0, 20.0):
            m = MarketParams.from_rho_sigma(rho, R, 0.1)
            p1 = binary_put_price(m, 0.0, 0.3, 0.25)
            p2 = binary_put_price(m, 0.0, 0.5, 0.25)
            slopes.append((math.log(p2) - math.log(p1)) / 0.2)
        assert slopes[0] > slopes[1] > slopes[2]
        assert slopes[0] < -8.0

    def test_unknown_method_rejected(self, de_model):
        with pytest.raises(InvalidParametersError):
            binary_put_price(de_model, 0.0, 0.1, 0.25, "simplex")


class TestBatchedSpots:
    XS = [-0.3, 0.0, 1e-3, 0.05, 0.2, 0.8]   # both sides of k = 0

    @pytest.mark.parametrize("t_bar", [0.0, 0.25, 1.0, 5.0])
    def test_column_equals_scalar_calls_exactly(self, de_model, t_bar):
        batch = binary_put_price(de_model, 0.0, np.array(self.XS), t_bar, "laplace")
        assert list(batch) == [binary_put_price(de_model, 0.0, x, t_bar, "laplace")
                               for x in self.XS]
        assert list(batch[:2]) == [1.0, 1.0]

    def test_transform_rows_equal_scalar_transforms(self, de_model):
        s = np.array([0.3 + 0.0j, 1.0 + 2.0j])
        rows = binary_put_laplace(de_model, 0.0, np.array(self.XS), s)
        assert rows.shape == (len(self.XS), 2)
        for x, row in zip(self.XS, rows):
            assert list(row) == list(binary_put_laplace(de_model, 0.0, x, s))

    def test_exercised_spots_run_no_inversion(self, de_model, monkeypatch):
        def inversion(*args, **kwargs):
            raise AssertionError("an exercised spot needs no inversion")

        monkeypatch.setattr(american, "laplace_invert", inversion)
        assert list(binary_put_price(de_model, 0.0, np.array([-0.3, 0.0]), 1.0)) == [1.0, 1.0]
        assert binary_put_price(de_model, 0.0, -0.3, 1.0) == 1.0
        assert binary_put_price(de_model, 0.0, 0.2, 0.0) == 0.0

    @pytest.mark.parametrize("t_bar", [0.0, 0.25, 1.0, 5.0])
    def test_closed_column_equals_scalar_calls_exactly(self, de_model, t_bar):
        # one batched quadrature over the spots above the strike
        batch = binary_put_price(de_model, 0.0, np.array(self.XS), t_bar, "closed")
        assert list(batch) == [binary_put_price(de_model, 0.0, x, t_bar, "closed")
                               for x in self.XS]
        assert list(batch[:2]) == [1.0, 1.0]

    def test_closed_column_error_carries_every_spots_outcome(self, de_model):
        # at this budget two of the four live spots fail alone: the column
        # raises with one best value and bound per spot of XS, the exercised
        # spots carrying 1 and 0 and each live spot its own outcome
        spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=1 << 9)
        with pytest.raises(AccuracyError) as exc:
            binary_put_price(de_model, 0.0, np.array(self.XS), 1.0, "closed", spec)
        best, bound = exc.value.best, exc.value.bound
        assert best.shape == bound.shape == (len(self.XS),)
        assert list(best[:2]) == [1.0, 1.0] and list(bound[:2]) == [0.0, 0.0]
        failed = 0
        for x, b, e in zip(self.XS[2:], best[2:], bound[2:]):
            try:
                assert b == binary_put_price(de_model, 0.0, x, 1.0, "closed", spec)
            except AccuracyError as alone:
                failed += 1
                assert (b, e) == (alone.best, alone.bound)
        assert failed == 2

    @pytest.mark.parametrize("method", ["closed", "laplace"])
    def test_2d_spots_rejected(self, de_model, method):
        with pytest.raises(InvalidParametersError):
            binary_put_price(de_model, 0.0, np.zeros((2, 2)), 1.0, method)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRefusedInputs:
    """A non-finite log-strike or log-price, or a strike that is not
    positive and finite, is refused before any kernel runs."""

    @pytest.fixture(autouse=True)
    def no_kernels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for kernel in ("beta_pm", "laplace_invert", "integrate_semi_infinite"):
            monkeypatch.setattr(american, kernel, refuse)

    @pytest.mark.parametrize("k", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("t_bar", [0.0, 1.0])
    @pytest.mark.parametrize("method", ["closed", "laplace"])
    def test_binary_put_log_strike(self, de_model, method, t_bar, k):
        for x in (0.1, np.array([-0.1, 0.1])):
            with pytest.raises(InvalidParametersError, match="log-strike k must be finite"):
                binary_put_price(de_model, k, x, t_bar, method)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_perpetual_log_strike_and_price(self, de_model, bad):
        with pytest.raises(InvalidParametersError, match="log-strike k must be finite"):
            perpetual_binary_put(de_model, bad, 0.1)
        for call in (lambda: perpetual_binary_put(de_model, 0.0, bad),
                     lambda: perpetual_vanilla_put(de_model, 1.0, bad)):
            with pytest.raises(InvalidParametersError, match="log-price x must be finite"):
                call()

    @pytest.mark.parametrize("K", [math.nan, math.inf, 0.0, -1.0], ids=repr)
    @pytest.mark.parametrize("formula", [
        lambda m, K: vanilla_exercise_trigger(m, K),
        lambda m, K: perpetual_exercise_boundary(m, K),
        lambda m, K: perpetual_vanilla_put(m, K, 0.0),
    ], ids=["vanilla_exercise_trigger", "perpetual_exercise_boundary", "perpetual_vanilla_put"])
    def test_strike_positive_and_finite(self, de_model, formula, K):
        with pytest.raises(InvalidParametersError, match="positive and finite"):
            formula(de_model, K)


class TestPerpetualBinaryPut:
    def test_exercised_region(self, de_model):
        assert perpetual_binary_put(de_model, 0.0, -0.3) == 1.0
        assert perpetual_binary_put(de_model, 0.0, 0.0) == 1.0

    def test_value_just_above_strike(self, de_model):
        assert perpetual_binary_put(de_model, 0.0, 1e-15) \
            == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_reference_value(self, de_model):
        assert perpetual_binary_put(de_model, 0.0, 0.1) \
            == pytest.approx(PERP_AT_TENTH, abs=1e-15)

    def test_far_out_vanishes(self, de_model):
        assert perpetual_binary_put(de_model, 0.0, 50.0) < 1e-100

    def test_frequent_jump_limit_decay(self):
        m = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        val = perpetual_binary_put(m, 0.0, 1e-3)
        wiener = math.exp(-2.0 * R * 1e-3 / 0.01)
        assert abs(val / wiener - 1.0) < 0.01


class TestExerciseTrigger:
    def test_reference_closed_form(self, de_model):
        z0 = vanilla_exercise_trigger(de_model, 1.0)
        assert z0 == pytest.approx(math.sqrt(88.0 / 90.0), abs=1e-15)
        assert z0 == pytest.approx(0.98882646494608839, abs=1e-15)

    def test_matches_numeric_root(self, de_model):
        z0 = vanilla_exercise_trigger(de_model, 1.0)
        assert abs(z0 - solve_trigger_numeric(de_model, 1.0)) < 1e-10

    def test_rare_jump_limit_is_strike(self):
        m = MarketParams.exponential(1.0 + 1e-9, 9.0, R)
        assert vanilla_exercise_trigger(m, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_frequent_jump_limit_approaches_strike(self):
        # the gap closes like ln(rho/16)/rho, which is still 2.4e-3 at
        # rho = 2000
        m = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        assert vanilla_exercise_trigger(m, 1.0) == pytest.approx(1.0, abs=3e-3)

    def test_scales_with_strike(self, de_model):
        assert vanilla_exercise_trigger(de_model, 50.0) \
            == pytest.approx(50.0 * vanilla_exercise_trigger(de_model, 1.0), rel=1e-14)


class TestPerpetualVanillaPut:
    def test_boundary_closed_form(self, de_model):
        zs = perpetual_exercise_boundary(de_model, 1.0)
        assert zs == pytest.approx(80.0 / 81.0, abs=1e-15)
        assert zs == pytest.approx(0.98765432098765432, abs=1e-15)

    def test_boundary_matches_numeric_root(self, de_model):
        zs = perpetual_exercise_boundary(de_model, 1.0)
        assert abs(zs - solve_boundary_numeric(de_model, 1.0)) < 1e-10

    def test_value_matching_at_boundary(self, de_model):
        zs = perpetual_exercise_boundary(de_model, 1.0)
        left = perpetual_vanilla_put(de_model, 1.0, math.log(zs))
        right = perpetual_vanilla_put(de_model, 1.0, math.log(zs) + 1e-12)
        assert left == pytest.approx(1.0 - zs, abs=1e-15)
        assert right == pytest.approx(left, abs=1e-11)
        assert left == pytest.approx(0.012345679012345679, abs=1e-15)

    def test_exercised_region_is_intrinsic(self, de_model):
        for spot in (0.5, 0.9):
            val = perpetual_vanilla_put(de_model, 1.0, math.log(spot))
            assert val == pytest.approx(1.0 - spot, abs=1e-15)

    def test_far_out_vanishes(self, de_model):
        assert perpetual_vanilla_put(de_model, 1.0, 20.0) < 1e-60

    def test_ordering_boundary_trigger_strike(self):
        for rho, gamma in ((2.0, 9.0), (1.5, 3.0), (5.0, 12.0), (20.0, 27.0)):
            m = MarketParams.exponential(rho, gamma, R)
            zs = perpetual_exercise_boundary(m, 1.0)
            z0 = vanilla_exercise_trigger(m, 1.0)
            assert zs <= z0 + 1e-14
            assert z0 <= 1.0 + 1e-14

    def test_frequent_jump_boundary_is_wiener(self):
        m = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        zs = perpetual_exercise_boundary(m, 1.0)
        wiener = wiener_exercise_boundary(1.0, R, 0.1)
        assert wiener == pytest.approx(2.0 * R / (2.0 * R + 0.01), abs=1e-15)
        assert abs(zs / wiener - 1.0) < 0.01

    def test_frequent_jump_value_is_wiener(self):
        m = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        for spot in (0.92, 1.0, 1.1):
            ours = perpetual_vanilla_put(m, 1.0, math.log(spot))
            ref = wiener_perpetual_put(spot, 1.0, R, 0.1)
            assert abs(ours / ref - 1.0) < 1e-4


class TestOffMartingaleIntensity:
    """At an intensity other than the martingale one (0.05 for rho=2, gamma=9,
    r=4%) the transform and the perpetual binary put stay exact, and the
    formulas that assume the martingale root beta_-(0) = -(gamma - rho + 1)
    refuse."""

    @pytest.mark.parametrize("lam", [0.01, 0.5, 3.0])
    def test_perpetual_binary_put_is_transform_limit(self, lam):
        m = MarketParams.exponential(2.0, 9.0, R, lam=lam)
        s = 1e-9
        for dx in (0.01, 0.1, 0.5):
            lim = s * complex(binary_put_laplace(m, 0.0, dx, s)).real
            assert abs(lim - perpetual_binary_put(m, 0.0, dx)) < 1e-6

    @pytest.mark.parametrize("formula", [
        lambda m: binary_put_closed(m, 0.0, math.log(1.1), 1.0),
        lambda m: binary_put_price(m, 0.0, math.log(1.1), 1.0, "closed"),
        lambda m: perpetual_vanilla_put(m, 1.0, math.log(1.1)),
        lambda m: perpetual_exercise_boundary(m, 1.0),
        lambda m: vanilla_exercise_trigger(m, 1.0),
    ], ids=["binary_put_closed", "binary_put_price-closed", "perpetual_vanilla_put",
            "perpetual_exercise_boundary", "vanilla_exercise_trigger"])
    def test_martingale_formulas_refuse(self, formula):
        with pytest.raises(InvalidParametersError, match="martingale intensity"):
            formula(MarketParams.exponential(2.0, 9.0, R, lam=0.5))

    def test_laplace_route_matches_first_passage_simulation(self):
        # the closed form, now refused here, gave 0.0389 against Laplace's 0.0320
        m = MarketParams.exponential(2.0, 9.0, R, lam=0.5)
        price = binary_put_price(m, 0.0, math.log(1.1), 1.0, "laplace")
        est = price_american_binary_put_mc(m, 0.0, math.log(1.1), 1.0,
                                           MCConfig(paths=200_000, seed=5))
        assert abs(est.value - price) <= 4.0 * est.std_error
