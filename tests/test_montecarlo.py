"""Tests for the exact compound-Poisson path simulator."""

import math
import sys
import threading
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
    montecarlo,
)
from ctrwpricer.american import binary_put_price
from ctrwpricer.densities import MAX_JUMP_DRAWS, char_fn, mean_var, sample_sum
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


def run_entry(name: str, params: MarketParams, config: MCConfig,
              x0: float = 0.0, horizon: float = 1.0):
    """One of the four Monte Carlo entry points on a log-spot and horizon."""
    if name == "simulate_terminal":
        return simulate_terminal(params, x0, horizon, config)
    if name == "price_european_mc":
        return price_european_mc(params, Contract(PayoffKind.VANILLA_CALL, 1.0, horizon),
                                 x0, config)
    if name == "martingale_check":
        return martingale_check(params, x0, horizon, config)
    return price_american_binary_put_mc(params, -0.02, x0, horizon, config)


ENTRY_POINTS = ("simulate_terminal", "price_european_mc", "martingale_check",
                "price_american_binary_put_mc")


def bits(result):
    """A result as an exact string: array bytes, or the repr of its floats."""
    return result.tobytes() if isinstance(result, np.ndarray) else repr(result)


@pytest.fixture
def thread_starts(monkeypatch) -> list:
    """The threads montecarlo starts, in the order they start."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(montecarlo.threading, "Thread", Recorded)
    return started


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

    @pytest.mark.parametrize("kind", [PayoffKind.BINARY_CALL, PayoffKind.BINARY_PUT])
    def test_binary_at_the_money_matches_closed_form(self, market, kind):
        # spot = strike = 105, where e^{ln 105} rounds below 105: most paths
        # never jump and end exactly at the strike, so the estimator must
        # apply the pricers' log-price test x >= ln K
        c = Contract(kind, 105.0, 0.25)
        x = math.log(105.0)
        est = price_european_mc(market, c, x, MCConfig(paths=20_000, seed=5))
        assert est.within(european_price(market, c, x), n_se=5.0), est

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


class TestBlockThreads:
    """Blocks run on up to ``montecarlo._WORKERS`` threads with serial bits."""

    @pytest.mark.parametrize("name,antithetic", [
        *[(name, False) for name in ENTRY_POINTS],
        *[(name, True) for name in ENTRY_POINTS[:3]],  # first passage has no pairs
    ])
    @pytest.mark.parametrize("paths", [16_385, 50_000])
    def test_threads_give_the_serial_bits(self, monkeypatch, thread_starts,
                                          gaussian_market, name, antithetic, paths):
        config = MCConfig(paths=paths, seed=31, antithetic=antithetic)
        monkeypatch.setattr(montecarlo, "_WORKERS", 1)
        serial = run_entry(name, gaussian_market, config)
        assert thread_starts == []
        # more workers than cores and blocks, switching threads often
        monkeypatch.setattr(montecarlo, "_WORKERS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_entry(name, gaussian_market, config)
        finally:
            sys.setswitchinterval(interval)
        blocks = math.ceil(paths / BLOCK)
        assert len(thread_starts) == min(5, blocks) - 1
        assert not any(t.is_alive() for t in thread_starts)
        assert bits(threaded) == bits(serial)

    def test_one_block_starts_no_thread(self, monkeypatch, thread_starts, gaussian_market):
        monkeypatch.setattr(montecarlo, "_WORKERS", 4)
        for paths in (100, BLOCK):
            for name in ENTRY_POINTS:
                run_entry(name, gaussian_market, MCConfig(paths=paths, seed=2))
        assert thread_starts == []
        for name in ENTRY_POINTS:
            run_entry(name, gaussian_market, MCConfig(paths=BLOCK + 1, seed=2))
        assert len(thread_starts) == len(ENTRY_POINTS)

    @pytest.mark.parametrize("width", [1, 3])
    def test_lowest_failing_block_is_raised(self, thread_starts, width):
        # block 2 fails first in time, block 1 later: a serial run would
        # stop at block 1, so its error is the one raised
        block_2_failed = threading.Event()
        ran = []

        def run_block(block, n):
            ran.append(block)
            if block == 1:
                if width > 1:
                    assert block_2_failed.wait(timeout=10.0)
                raise ValueError("block 1 failed")
            if block == 2:
                block_2_failed.set()
                raise MemoryError("block 2 failed")
            return block

        with pytest.raises(ValueError, match="^block 1 failed$"):
            montecarlo._map_blocks(run_block, 6 * BLOCK, width)
        assert len(thread_starts) == width - 1
        assert not any(t.is_alive() for t in thread_starts)
        if width == 1:
            assert ran == [0, 1]

    def test_width_keeps_jump_draws_in_flight_within_budget(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_WORKERS", 64)
        for lam_t in (1e-3, 0.5, 2.0, 7.3, 100.0, 512 / 3, 256.0, 511.0, 512.0, 513.0, 1e4):
            draws = BLOCK * lam_t
            width = montecarlo._width(draws)
            assert 1 <= width <= 64
            assert width == 1 or width * draws <= MAX_JUMP_DRAWS, lam_t
            assert width == 64 or (width + 1) * draws > MAX_JUMP_DRAWS, lam_t
        assert montecarlo._width(0.0) == 64

    @pytest.mark.parametrize("family,width", [(Family.LOGISTIC, 3), (Family.GAUSSIAN, 6)])
    def test_summed_by_jump_blocks_in_flight(self, monkeypatch, thread_starts, family, width):
        # with the budget cut to three blocks' expected draws, the law summed
        # jump by jump runs three blocks at once and the closed one all six
        lam_t = 2.0
        monkeypatch.setattr(montecarlo, "_WORKERS", 8)
        monkeypatch.setattr(montecarlo, "MAX_JUMP_DRAWS", 3 * BLOCK * lam_t)
        in_flight, peak, lock = [0], [0], threading.Lock()

        def counted(d, rng, counts, lt):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.02)
                return sample_sum(d, rng, counts, lt)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(montecarlo, "sample_sum", counted)
        mp = MarketParams(r=R, density=JumpDensity(family, 0.0, 1e-3), lam=lam_t)
        simulate_terminal(mp, 0.0, 1.0, MCConfig(paths=6 * BLOCK, seed=4))
        assert len(thread_starts) == width - 1
        assert peak[0] <= width
        if family is Family.LOGISTIC:
            assert peak[0] * BLOCK * lam_t <= montecarlo.MAX_JUMP_DRAWS


class TestBlockMoments:
    """Each block is reduced to its payoffs' count, mean and sum of squared
    deviations where it is drawn, and the estimate merges them in order."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("paths", [100, BLOCK, 3 * BLOCK + 1, 7 * BLOCK - 4321])
    def test_merge_matches_two_pass_reference(self, gaussian_market, paths, antithetic):
        config = MCConfig(paths=paths, seed=11, antithetic=antithetic)
        xt = simulate_terminal(gaussian_market, 0.0, 1.0, config)
        disc = math.exp(-R)
        contract = Contract(PayoffKind.VANILLA_CALL, 1.0, 1.0)
        price = price_european_mc(gaussian_market, contract, 0.0, config)
        drift = martingale_check(gaussian_market, 0.0, 1.0, config)
        for (value, std_error), payoffs in [
            ((price.value, price.std_error), disc * contract.payoff.value(xt)),
            ((drift["drift"], drift["std_error"]), disc * np.exp(xt) - 1.0),
        ]:
            if antithetic:
                payoffs = payoffs.mean(axis=1)
            assert payoffs.shape == (paths,)
            assert value == pytest.approx(payoffs.mean(), rel=1e-12, abs=0.0)
            assert std_error == pytest.approx(payoffs.std(ddof=1) / math.sqrt(paths),
                                              rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ENTRY_POINTS[1:])
    def test_peak_memory_does_not_grow_with_paths(self, monkeypatch, market, name):
        # two blocks in flight at most; 16 blocks of joined payoffs alone
        # would take 2 MiB, and the two-pass std another 2
        monkeypatch.setattr(montecarlo, "_WORKERS", 2)
        for blocks in (16, 128):
            tracemalloc.start()
            try:
                run_entry(name, market, MCConfig(paths=blocks * BLOCK, seed=3))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, (blocks, peak)


class TestRefusedStart:
    """A non-finite log-price or horizon is refused before any block is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(seed, block):
            raise AssertionError(f"block {block} was drawn")
        monkeypatch.setattr(montecarlo, "_block_rng", refuse)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_non_finite_log_price(self, market, name, x0):
        with pytest.raises(InvalidParametersError, match="finite log-price"):
            run_entry(name, market, MCConfig(paths=2 * BLOCK, seed=0), x0=x0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0], ids=repr)
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_bad_horizon(self, market, name, horizon):
        with pytest.raises(InvalidParametersError, match="non-negative and finite"):
            run_entry(name, market, MCConfig(paths=2 * BLOCK, seed=0), x0=0.1,
                      horizon=horizon)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_log_strike(self, market, k):
        with pytest.raises(InvalidParametersError, match="finite log-strike"):
            price_american_binary_put_mc(market, k, 0.1, 1.0, MCConfig(paths=2 * BLOCK, seed=0))
