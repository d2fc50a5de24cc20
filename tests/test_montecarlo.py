"""Tests for the exact compound-Poisson path simulator."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ctrwpricer import (
    Contract,
    Family,
    JumpDensity,
    MarketParams,
    MCConfig,
    PayoffKind,
    fit_from_moments,
)
from ctrwpricer.american import binary_put_price
from ctrwpricer.densities import char_fn, mean_var
from ctrwpricer.errors import (
    InvalidParametersError,
    UnsupportedFamilyError,
    ValidationError,
)
from ctrwpricer.european import european_price
from ctrwpricer.fourier import butterfly_payoff, price_fourier
from ctrwpricer.montecarlo import (
    BLOCK,
    MCEstimate,
    martingale_check,
    price_american_binary_put_mc,
    price_european_mc,
    simulate_terminal,
)

R = 0.04


def assert_refused_before_drawing(call):
    """``call`` hits the jump-draw budget fast, allocating a block's counts at most."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="jump draws per block"):
            call()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 4 * BLOCK * 8


@pytest.fixture
def market(de_model) -> MarketParams:
    return de_model


@pytest.fixture
def gaussian_market() -> MarketParams:
    return MarketParams.risk_neutral(R, fit_from_moments(Family.GAUSSIAN, 1e-3, 1e-4))


class TestConfig:
    def test_too_few_paths(self):
        with pytest.raises(InvalidParametersError):
            MCConfig(paths=99)
        with pytest.raises(InvalidParametersError):
            MCConfig(paths=0)

    def test_seed_range(self):
        with pytest.raises(InvalidParametersError):
            MCConfig(paths=1000, seed=-1)
        with pytest.raises(InvalidParametersError):
            MCConfig(paths=1000, seed=2**63)
        assert MCConfig(paths=1000, seed=2**63 - 1).seed == 2**63 - 1

    def test_estimate_within(self):
        est = MCEstimate(value=1.0, std_error=0.1, paths=1000, seed=0)
        assert est.within(1.25)
        assert not est.within(1.35)
        assert est.within(1.15, n_se=2.0)


class TestSimulateTerminal:
    def test_zero_horizon_never_moves(self, market):
        xt = simulate_terminal(market, 0.3, 0.0, MCConfig(paths=1000, seed=0))
        assert np.all(xt == 0.3)

    def test_negative_horizon_rejected(self, market):
        with pytest.raises(InvalidParametersError):
            simulate_terminal(market, 0.0, -1.0, MCConfig(paths=1000, seed=0))

    def test_bit_identical_repeats(self, market):
        a = simulate_terminal(market, 0.0, 1.0, MCConfig(paths=50_000, seed=7))
        b = simulate_terminal(market, 0.0, 1.0, MCConfig(paths=50_000, seed=7))
        assert np.array_equal(a, b)

    def test_path_count_prefix_stability(self, market):
        # growing the run must extend the sample, not reshuffle it
        short = simulate_terminal(market, 0.0, 1.0, MCConfig(paths=30_000, seed=5))
        long = simulate_terminal(market, 0.0, 1.0, MCConfig(paths=50_000, seed=5))
        assert np.array_equal(short, long[:30_000])

    def test_mean_log_return(self, market):
        xt = simulate_terminal(market, 0.0, 1.0, MCConfig(paths=1_000_000, seed=1))
        se = xt.std(ddof=1) / math.sqrt(xt.size)
        assert abs(xt.mean() - 0.019444444444444444) <= 3.0 * se

    def test_jump_counts_are_poisson(self):
        # the degenerate two-point law (always jump +b) makes the jump count
        # readable from the terminal state, so its law can be tested directly
        d = JumpDensity(Family.DISCRETE, 1.0, 0.5)
        mp = MarketParams.risk_neutral(R, d)
        horizon = 50.0
        xt = simulate_terminal(mp, 0.0, horizon, MCConfig(paths=200_000, seed=2))
        counts = np.rint(xt / 0.5).astype(int)
        kmax = int(counts.max())
        obs = np.bincount(counts, minlength=kmax + 1).astype(float)
        pmf = stats.poisson.pmf(np.arange(kmax + 1), mp.lam * horizon)
        pmf[-1] = 1.0 - pmf[:-1].sum()
        expected = pmf * counts.size
        while expected.size > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            obs[-2] += obs[-1]
            expected, obs = expected[:-1], obs[:-1]
        result = stats.chisquare(obs, expected * obs.sum() / expected.sum())
        assert result.pvalue > 0.001

    def test_pareto_half_terminal_law(self):
        # the tempered power tail has no jump count; its increment is a
        # difference of two inverse-Gaussian variables with cumulants
        # lam*T times those of one jump
        mp = MarketParams.risk_neutral(R, fit_from_moments(Family.PARETO_HALF, 1e-3, 1e-4))
        m1, v = mean_var(mp.density)
        lam_t = mp.lam * 0.25
        xt = simulate_terminal(mp, 0.0, 0.25, MCConfig(paths=1_000_000, seed=13))
        n = xt.size
        dev = xt - xt.mean()
        var = float(np.mean(dev * dev))
        assert abs(xt.mean() - lam_t * m1) <= 5.0 * math.sqrt(var / n)
        var_se = math.sqrt((np.mean(dev**4) - var * var) / n)
        assert abs(var - lam_t * (v + m1 * m1)) <= 5.0 * var_se

        x = math.log(92.0)
        c = Contract(PayoffKind.PORTFOLIO, 100.0, 0.25, width=10.0)
        est = price_european_mc(mp, c, x, MCConfig(paths=1_000_000, seed=14))
        four = price_fourier(mp, butterfly_payoff(100.0, 10.0), x, 0.25)
        assert est.within(four, n_se=5.0), (est, four)

    @pytest.mark.parametrize("density", [
        JumpDensity(Family.EXPONENTIAL, 0.03, 0.05),
        JumpDensity(Family.DISCRETE, 0.6, 0.04),
        JumpDensity(Family.GAUSSIAN, 0.01, 0.05),
        JumpDensity(Family.LOGISTIC, 0.01, 0.03),
    ], ids=lambda d: d.family.value)
    def test_characteristic_function_at_large_lam_t(self, density):
        # E[e^{iwX_T}] = exp(lam*T*(phi(w) - 1)) for the compound-Poisson sum
        lam_t = 40.0
        mp = MarketParams(r=R, density=density, lam=lam_t)
        xt = simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=200_000, seed=17))
        for w in (1.0, 3.0, 6.0):
            z = np.exp(1j * w * xt)
            want = np.exp(lam_t * (char_fn(density, w) - 1.0))
            se = np.array([z.real.std(ddof=1), z.imag.std(ddof=1)]) / math.sqrt(xt.size)
            got = z.mean()
            assert abs(got.real - want.real) <= 5.0 * se[0], (w, got, want)
            assert abs(got.imag - want.imag) <= 5.0 * se[1], (w, got, want)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_every_family_repeats_and_extends(self, family):
        mp = MarketParams.risk_neutral(R, fit_from_moments(family, 1e-3, 1e-4))
        first = simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=50_000, seed=19))
        again = simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=50_000, seed=19))
        short = simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=30_000, seed=19))
        assert np.array_equal(first, again)
        assert np.array_equal(short, first[:30_000])
        assert first.std() > 0.0

    def test_pareto_half_antithetic_mirror(self):
        mp = MarketParams.risk_neutral(R, JumpDensity(Family.PARETO_HALF, 0.5, 0.1))
        cfg = MCConfig(paths=5000, seed=3, antithetic=True)
        xt = simulate_terminal(mp, 0.0, 1.0, cfg)
        assert np.array_equal(xt[:, 1], -xt[:, 0])

    def test_per_jump_family_refused_over_draw_budget(self):
        mp = MarketParams(r=R, density=JumpDensity(Family.LOGISTIC, 0.0, 1e-4), lam=1e6)
        assert_refused_before_drawing(
            lambda: simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=1000, seed=0)))

    def test_antithetic_returns_mirrored_pairs(self, gaussian_market):
        cfg = MCConfig(paths=5000, seed=3, antithetic=True)
        xt = simulate_terminal(gaussian_market, 0.0, 1.0, cfg)
        assert xt.shape == (5000, 2)
        plain = simulate_terminal(gaussian_market, 0.0, 1.0,
                                  MCConfig(paths=5000, seed=3))
        assert np.array_equal(xt[:, 0], plain)

    def test_antithetic_needs_symmetry(self, market):
        cfg = MCConfig(paths=1000, seed=0, antithetic=True)
        with pytest.raises(UnsupportedFamilyError):
            simulate_terminal(market, 0.0, 1.0, cfg)


class TestEuropeanMC:
    def test_sure_payoff_prices_the_discount_bond(self, market):
        # a binary call with a vanishing strike pays one unit on every path
        c = Contract(PayoffKind.BINARY_CALL, 1e-12, 0.25)
        est = price_european_mc(market, c, 0.0, MCConfig(paths=100_000, seed=0))
        assert est.value == pytest.approx(math.exp(-R * 0.25), abs=1e-15)
        assert est.std_error <= 1e-15

    def test_binary_call_matches_transform_price(self):
        m = MarketParams.exponential(4.0, 11.0, R)
        c = Contract(PayoffKind.BINARY_CALL, 1.0, 0.25)
        est = price_european_mc(m, c, 0.0,
                                MCConfig(paths=1_000_000, seed=3))
        assert est.within(european_price(m, c, 0.0))

    def test_butterfly_matches_fourier_price(self, gaussian_market):
        c = Contract(PayoffKind.PORTFOLIO, 100.0, 0.25, width=10.0)
        x = math.log(100.0)
        est = price_european_mc(gaussian_market, c, x,
                                MCConfig(paths=1_000_000, seed=4))
        four = price_fourier(gaussian_market, butterfly_payoff(100.0, 10.0), x, 0.25)
        assert est.within(four)

    def test_diffusion_limit_market_matches_closed_form(self):
        # the criterion-4 market: rho=2000, sigma=0.1, lam*T ~ 2e4 at T=1,
        # far too many jumps to draw one by one
        start = time.perf_counter()
        m = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        for kind, seed in ((PayoffKind.VANILLA_CALL, 2001), (PayoffKind.BINARY_CALL, 2002)):
            c = Contract(kind, 1.0, 1.0)
            est = price_european_mc(m, c, math.log(1.02),
                                    MCConfig(paths=200_000, seed=seed))
            assert est.within(european_price(m, c, math.log(1.02))), (kind, est)
        assert time.perf_counter() - start < 5.0

    def test_seed_independence_within_statistics(self):
        m = MarketParams.exponential(4.0, 11.0, R)
        c = Contract(PayoffKind.BINARY_CALL, 1.0, 0.25)
        a = price_european_mc(m, c, 0.0, MCConfig(paths=200_000, seed=11))
        b = price_european_mc(m, c, 0.0, MCConfig(paths=200_000, seed=12))
        assert abs(a.value - b.value) <= 5.0 * math.hypot(a.std_error, b.std_error)

    def test_antithetic_does_not_hurt(self, gaussian_market):
        c = Contract(PayoffKind.PORTFOLIO, 100.0, 0.25, width=10.0)
        x = math.log(100.0)
        plain = price_european_mc(gaussian_market, c, x, MCConfig(paths=100_000, seed=9))
        anti = price_european_mc(gaussian_market, c, x,
                                 MCConfig(paths=100_000, seed=9, antithetic=True))
        assert anti.std_error <= 1.01 * plain.std_error


class TestAmericanMC:
    def test_already_exercised(self, market):
        est = price_american_binary_put_mc(market, 0.0, -0.1, 1.0,
                                           MCConfig(paths=1000, seed=0))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_zero_horizon_never_pays(self, market):
        est = price_american_binary_put_mc(market, 0.0, 0.1, 0.0,
                                           MCConfig(paths=1000, seed=0))
        assert est.value == 0.0

    def test_matches_transform_price(self, de_model, market):
        est = price_american_binary_put_mc(market, 0.0, 0.1, 50.0,
                                           MCConfig(paths=1_000_000, seed=5))
        assert est.within(binary_put_price(de_model, 0.0, 0.1, 50.0))

    def test_reproducible(self, market):
        cfg = MCConfig(paths=30_000, seed=21)
        a = price_american_binary_put_mc(market, 0.0, 0.1, 5.0, cfg)
        b = price_american_binary_put_mc(market, 0.0, 0.1, 5.0, cfg)
        assert a == b

    def test_antithetic_rejected(self, market):
        cfg = MCConfig(paths=1000, seed=0, antithetic=True)
        with pytest.raises(UnsupportedFamilyError):
            price_american_binary_put_mc(market, 0.0, 0.1, 1.0, cfg)

    def test_refused_over_draw_budget(self):
        # every jump of a first passage is drawn: lam*T ~ 2e4 at rho=2000
        mp = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        assert_refused_before_drawing(
            lambda: price_american_binary_put_mc(mp, 0.0, 0.1, 1.0,
                                                 MCConfig(paths=1000, seed=0)))

    def test_pareto_half_still_unsupported(self):
        mp = MarketParams.risk_neutral(R, fit_from_moments(Family.PARETO_HALF, 1e-3, 1e-4))
        with pytest.raises(UnsupportedFamilyError):
            price_american_binary_put_mc(mp, 0.0, 0.1, 1.0, MCConfig(paths=1000, seed=0))


class TestMartingaleCheck:
    def test_reference_market_passes(self, market):
        report = martingale_check(market, 0.0, 1.0, MCConfig(paths=1_000_000, seed=6))
        assert report["passed"]
        assert abs(report["drift"]) <= 3.0 * report["std_error"]

    def test_fitted_gaussian_passes(self, gaussian_market):
        report = martingale_check(gaussian_market, 0.0, 1.0,
                                  MCConfig(paths=1_000_000, seed=7))
        assert report["passed"]

    def test_doubled_intensity_fails_upward(self, de_model):
        bad = MarketParams(r=R, density=de_model.density, lam=2.0 * de_model.lam)
        report = martingale_check(bad, 0.0, 1.0, MCConfig(paths=100_000, seed=8))
        assert not report["passed"]
        assert report["drift"] > 3.0 * report["std_error"]

    def test_zero_horizon_is_exact(self, market):
        report = martingale_check(market, 0.0, 0.0, MCConfig(paths=1000, seed=0))
        assert report["drift"] == 0.0
        assert report["passed"]
