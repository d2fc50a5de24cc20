"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` for a one-line pass/fail board.
Each test carries its wall-clock budget; tolerances are part of the
criterion and are asserted literally, not tuned to the implementation.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctrwpricer import american, blackscholes, european, fourier
from ctrwpricer.cli import FIGURES, build_figure, read_meta, write_csv
from ctrwpricer.densities import Family, JumpDensity, fit_from_moments
from ctrwpricer.european import (
    Contract,
    PayoffKind,
    PriceMethod,
    no_trade_vanilla_call,
)
from ctrwpricer.montecarlo import (
    MCConfig,
    martingale_check,
    price_american_binary_put_mc,
    price_european_mc,
)
from ctrwpricer.numerics import (
    LaplaceFn,
    laplace_invert,
    laplace_invert_euler,
    laplace_invert_talbot,
)
from ctrwpricer.riskneutral import MarketParams

R = 0.04
REF = MarketParams.exponential(2.0, 9.0, R)
MONEYNESS = np.linspace(0.8, 1.2, 21)
HORIZONS = (0.05, 0.25, 1.0, 5.0, 20.0)
GRID = list(itertools.product(MONEYNESS, HORIZONS))


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def vanilla(model: MarketParams, strike: float, x: float, t_bar: float,
            method: PriceMethod = PriceMethod.CLOSED) -> float:
    contract = Contract(kind=PayoffKind.VANILLA_CALL, strike=strike, t_bar=t_bar)
    return european.european_price(model, contract, x, method)


def binary(model: MarketParams, x: float, t_bar: float,
           method: PriceMethod = PriceMethod.CLOSED) -> float:
    contract = Contract(kind=PayoffKind.BINARY_CALL, strike=1.0, t_bar=t_bar)
    return european.european_price(model, contract, x, method)


def test_criterion_01_laplace_kernel():
    with budget(1.0):
        pairs = [
            (LaplaceFn(lambda s: 1.0 / (s + 2.0), abscissa=-2.0),
             lambda t: math.exp(-2.0 * t)),
            (lambda s: 1.0 / s, lambda t: 1.0),
            (lambda s: 1.0 / (s * s + 1.0), math.sin),
        ]
        for transform, exact in pairs:
            for t in (0.1, 1.0, 10.0):
                value = laplace_invert(transform, t)
                assert abs(value - exact(t)) <= 1e-8 * abs(exact(t))

        for mny, t_bar in GRID:
            x = math.log(mny)
            transforms = (
                lambda s: european.binary_call_laplace(REF, 0.0, x, s),
                lambda s: european.vanilla_call_laplace(REF, 1.0, x, s),
                lambda s: american.binary_put_laplace(REF, 0.0, x, s),
            )
            for transform in transforms:
                talbot = laplace_invert_talbot(transform, t_bar)
                euler = laplace_invert_euler(transform, t_bar)
                assert abs(talbot - euler) <= 1e-7


def test_criterion_02_put_call_parity():
    # non-circular: the put comes from the closed-form call through the
    # parity map, the call on the other side from the inversion route
    with budget(1.0):
        for mny, t_bar in GRID:
            x, disc = math.log(mny), math.exp(-R * t_bar)
            put_b = european.put_price_from_parity(
                binary(REF, x, t_bar), PayoffKind.BINARY_CALL, x, 1.0, R, t_bar)
            call_b = binary(REF, x, t_bar, PriceMethod.LAPLACE)
            assert abs(put_b + call_b - disc) <= 1e-6

            put_v = european.put_price_from_parity(
                vanilla(REF, 1.0, x, t_bar), PayoffKind.VANILLA_CALL,
                x, 1.0, R, t_bar)
            call_v = vanilla(REF, 1.0, x, t_bar, PriceMethod.LAPLACE)
            assert abs(put_v - call_v - (disc - math.exp(x))) <= 1e-6


def test_criterion_03_method_agreement():
    with budget(10.0):
        for mny, t_bar in GRID:
            x = math.log(mny)
            assert abs(binary(REF, x, t_bar)
                       - binary(REF, x, t_bar, PriceMethod.LAPLACE)) <= 1e-6
            assert abs(vanilla(REF, 1.0, x, t_bar)
                       - vanilla(REF, 1.0, x, t_bar, PriceMethod.LAPLACE)) <= 1e-6
            assert abs(american.binary_put_price(REF, 0.0, x, t_bar, "closed")
                       - american.binary_put_price(REF, 0.0, x, t_bar, "laplace")
                       ) <= 1e-6


SWEEP_RHOS = (1.01, 1.1, 2.0, 5.0, 20.0, 200.0, 2000.0)
SWEEP_SIGMAS = (0.05, 0.1, 0.2, 0.4, 0.8)
SWEEP_HORIZONS = (1e-4, 0.01, 0.25, 1.0, 5.0, 50.0)
SWEEP_MONEYNESS = np.geomspace(0.3, 3.0, 6)


def test_criterion_03_method_agreement_across_admissible_space():
    # 3,780 prices: the criterion-3 bound holds far from the reference
    # market too, including the large lam*T corner (rho in {200, 2000},
    # T in {5, 50}) where the inversion's characteristic roots used to
    # cancel and raise AccuracyError
    with budget(10.0):
        for rho, sigma in itertools.product(SWEEP_RHOS, SWEEP_SIGMAS):
            model = MarketParams.from_rho_sigma(rho, R, sigma)
            for t_bar, mny in itertools.product(SWEEP_HORIZONS, SWEEP_MONEYNESS):
                x = math.log(mny)
                where = f"rho={rho} sigma={sigma} T={t_bar} S/K={mny:.3f}"
                assert abs(binary(model, x, t_bar)
                           - binary(model, x, t_bar, PriceMethod.LAPLACE)) <= 1e-6, where
                assert abs(vanilla(model, 1.0, x, t_bar)
                           - vanilla(model, 1.0, x, t_bar, PriceMethod.LAPLACE)) <= 1e-6, where
                assert abs(american.binary_put_price(model, 0.0, x, t_bar, "closed")
                           - american.binary_put_price(model, 0.0, x, t_bar, "laplace")
                           ) <= 1e-6, where


def test_criterion_04_diffusion_limit_convergence():
    with budget(30.0):
        gaps = []
        for rho in (20.0, 200.0, 2000.0):
            model = MarketParams.from_rho_sigma(rho, R, 0.1)
            gaps.append(max(
                abs(vanilla(model, 1.0, math.log(s), 0.25)
                    - blackscholes.bs_vanilla_call(s, 1.0, R, 0.1, 0.25))
                for s in np.linspace(0.9, 1.1, 21)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 5e-3


def test_criterion_05_no_trade_limit():
    with budget(1.0):
        model = MarketParams.from_rho_sigma(1.0 + 1e-6, R, 0.1)
        for mny, t_bar in GRID:
            x = math.log(mny)
            target = no_trade_vanilla_call(1.0, x, t_bar, R)
            assert abs(vanilla(model, 1.0, x, t_bar) - target) <= 1e-4


def test_criterion_06_martingale_and_mc():
    with budget(60.0):
        markets = [
            REF,
            MarketParams.risk_neutral(R, fit_from_moments(Family.GAUSSIAN,
                                                          1e-3, 1e-4)),
        ]
        for seed, market in zip((601, 602), markets):
            report = martingale_check(market, 0.0, 1.0,
                                      MCConfig(paths=10**6, seed=seed))
            assert report["passed"], report

        reference_market = REF
        x = math.log(1.02)
        for seed, kind in ((603, PayoffKind.BINARY_CALL),
                           (604, PayoffKind.VANILLA_CALL)):
            contract = Contract(kind=kind, strike=1.0, t_bar=0.25)
            estimate = price_european_mc(reference_market, contract, x,
                                         MCConfig(paths=10**6, seed=seed))
            assert estimate.within(european.european_price(REF, contract, x))

        x = math.log(1.05)
        estimate = price_american_binary_put_mc(
            reference_market, 0.0, x, 5.0, MCConfig(paths=10**6, seed=605))
        assert estimate.within(american.binary_put_price(REF, 0.0, x, 5.0))


def test_criterion_07_perpetual_identities():
    with budget(1.0):
        # s -> 0 limit of the finite-horizon transform is the perpetual value
        for x in (0.01, 0.1, 0.5, 1.0):
            limit = 1e-9 * american.binary_put_laplace(REF, 0.0, x, 1e-9)
            perpetual = (1.0 / 9.0) * math.exp(-8.0 * x)
            assert abs(limit - perpetual) <= 1e-6

        trigger = american.vanilla_exercise_trigger(REF, 1.0)
        boundary = american.perpetual_exercise_boundary(REF, 1.0)
        assert abs(trigger - american.solve_trigger_numeric(REF, 1.0)) <= 1e-10
        assert abs(boundary - american.solve_boundary_numeric(REF, 1.0)) <= 1e-10

        assert trigger == pytest.approx(0.988826, abs=1e-6)
        assert boundary == pytest.approx(0.987654, abs=1e-6)
        value = american.perpetual_vanilla_put(REF, 1.0, math.log(boundary))
        assert value == pytest.approx(0.0123457, abs=1e-6)


def test_criterion_08_wiener_perpetual_boundary():
    with budget(1.0):
        model = MarketParams.from_rho_sigma(2000.0, R, 0.1)
        boundary = american.perpetual_exercise_boundary(model, 1.0)
        wiener = 2.0 * R / (2.0 * R + 0.01)
        assert abs(boundary / wiener - 1.0) <= 0.01


def test_criterion_09_transform_route_consistency():
    with budget(5.0):
        market = REF
        payoff = fourier.butterfly_payoff(100.0, 10.0)
        for spot in (90.0, 100.0, 110.0):
            x = math.log(spot)
            via_transform = fourier.price_fourier(market, payoff, x, 0.25)
            via_exact = (2.0 * vanilla(REF, 105.0, x, 0.25)
                         - vanilla(REF, 100.0, x, 0.25)
                         - vanilla(REF, 110.0, x, 0.25))
            assert abs(via_transform - via_exact) <= 1e-4


def _fitted_market(family: Family) -> MarketParams:
    return MarketParams.risk_neutral(R, fit_from_moments(family, 1e-3, 1e-4))


def _fitted_butterfly_prices() -> dict:
    x = math.log(92.0)
    payoff = fourier.butterfly_payoff(100.0, 10.0)
    prices = {}
    for family in Family:
        market = _fitted_market(family)
        if family is Family.DISCRETE:
            prices[family] = fourier.price_two_point_exact(
                market, payoff, x, 0.25)
        else:
            prices[family] = fourier.price_fourier(market, payoff, x, 0.25)
    return prices


def _wald_difference_butterfly(market: MarketParams, x: float, t_bar: float,
                               paths: int, seed: int) -> tuple[float, float]:
    """(price, standard error) of the (100, 10) butterfly by exact sampling.

    The PARETO_HALF Levy exponent factors as X_T - x = Y+ - Y-, with Y+-
    inverse Gaussian of mean c+-*b/2 and shape c+-^2*b/2, where
    c+ = 2*sqrt(pi)*lam*T*a and c- = 2*sqrt(pi)*lam*T*(1 - a)
    (Michael, Schucany & Haas 1976; Cont & Tankov 2004, ch. 4).
    """
    d = market.density
    scale = 2.0 * math.sqrt(math.pi) * market.lam * t_bar
    c_up, c_down = scale * d.a, scale * (1.0 - d.a)
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    block = 1 << 19
    for start in range(0, paths, block):
        n = min(block, paths - start)
        y = (rng.wald(0.5 * c_up * d.b, 0.5 * c_up * c_up * d.b, n)
             - rng.wald(0.5 * c_down * d.b, 0.5 * c_down * c_down * d.b, n))
        s = np.exp(x + y)
        v = (2.0 * np.maximum(s - 105.0, 0.0) - np.maximum(s - 100.0, 0.0)
             - np.maximum(s - 110.0, 0.0))
        total += v.sum()
        total_sq += (v * v).sum()
    mean = total / paths
    disc = math.exp(-market.r * t_bar)
    return disc * mean, disc * math.sqrt((total_sq / paths - mean * mean) / paths)


def _raw_moments_3_4(d: JumpDensity) -> tuple[float, float]:
    """Closed-form E[J^3] and E[J^4] of one PARETO_HALF or GAUSSIAN jump."""
    a, b = d.a, d.b
    if d.family is Family.PARETO_HALF:
        sp = math.sqrt(math.pi)
        return 0.75 * sp * (2.0 * a - 1.0) * b**3, 1.875 * sp * b**4
    assert d.family is Family.GAUSSIAN
    return a**3 + 3.0 * a * b * b, a**4 + 6.0 * a * a * b * b + 3.0 * b**4


def test_criterion_10_density_effect_ratio():
    with budget(10.0):
        prices = _fitted_butterfly_prices()
        ratio = prices[Family.GUMBEL] / prices[Family.DISCRETE]
        assert 2.4 <= ratio <= 3.6


def test_criterion_10_heavy_tail_separation():
    # With mean and variance matched, the families differ through the
    # cumulants kappa_n = lam*T*E[J^n], n >= 3. The fitted tempered power
    # tail is not heavy where it matters here (E[J^4]/E[J^2]^2 = 15/(2
    # sqrt(pi)) ~ 4.23, logistic 4.18, exponential 6.12), and against the
    # Gaussian its skew and kurtosis terms nearly cancel, so it is the
    # closest pair of the 21. Its transform price is backed by an exact
    # inverse-Gaussian difference sampler that shares only the calibrated
    # intensity with the transform route.
    with budget(10.0):
        x, t_bar = math.log(92.0), 0.25
        prices = _fitted_butterfly_prices()
        pareto = _fitted_market(Family.PARETO_HALF)
        gauss = _fitted_market(Family.GAUSSIAN)
        gap = prices[Family.PARETO_HALF] - prices[Family.GAUSSIAN]

        # 1. a second pricing route agrees with the transform route
        mc, se = _wald_difference_butterfly(pareto, x, t_bar, 4_000_000,
                                            seed=7112624)
        assert abs(prices[Family.PARETO_HALF] - mc) <= 5.0 * se, (mc, se)

        # 2. the gap is the Jarrow-Rudd skew plus kurtosis correction
        #    dk3/6 * d3C_G/dx3 + dk4/24 * d4C_G/dx4 to the Gaussian price
        e3p, e4p = _raw_moments_3_4(pareto.density)
        e3g, e4g = _raw_moments_3_4(gauss.density)
        dk3 = t_bar * (pareto.lam * e3p - gauss.lam * e3g)
        dk4 = t_bar * (pareto.lam * e4p - gauss.lam * e4g)
        h = 0.0025
        payoff = fourier.butterfly_payoff(100.0, 10.0)
        c = [fourier.price_fourier(gauss, payoff, x + k * h, t_bar)
             for k in (-2, -1, 0, 1, 2)]
        d3 = (c[4] - 2.0 * c[3] + 2.0 * c[1] - c[0]) / (2.0 * h**3)
        d4 = (c[4] - 4.0 * c[3] + 6.0 * c[2] - 4.0 * c[1] + c[0]) / h**4
        skew, kurt = dk3 / 6.0 * d3, dk4 / 24.0 * d4
        assert skew * kurt < 0.0, (skew, kurt)
        assert min(abs(skew), abs(kurt)) > abs(gap), (skew, kurt, gap)
        assert (skew + kurt) * gap > 0.0, (skew, kurt, gap)

        # 3. hence the fitted heavy-tail law is the closest of all pairs
        for fam_a, fam_b in itertools.combinations(Family, 2):
            if {fam_a, fam_b} == {Family.PARETO_HALF, Family.GAUSSIAN}:
                continue
            assert abs(gap) < abs(prices[fam_a] - prices[fam_b]), \
                f"{fam_a.value} vs {fam_b.value}"


def test_criterion_11_smile_collapse():
    with budget(30.0):
        for rho in (2.0, 5.0, 20.0):
            model = MarketParams.from_rho_sigma(rho, R, 0.1)
            grid = np.linspace(0.90, 1.20, 61)
            ivs = [blackscholes.implied_vol(
                       vanilla(model, 1.0, math.log(s), 0.25), s, 1.0, R, 0.25)
                   for s in grid]

            crossings = [0.5 * (sa + sb)
                         for iva, ivb, sa, sb in zip(ivs, ivs[1:], grid, grid[1:])
                         if (iva - 0.1) * (ivb - 0.1) <= 0.0]
            assert crossings, f"curve for rho={rho} never crosses 10%"
            assert 0.93 <= crossings[0] <= 0.99

            above = [iv for s, iv in zip(grid, ivs) if s > 1.0]
            assert all(b > a for a, b in zip(above, above[1:])), \
                f"curve for rho={rho} is not upward-sloping past the strike"


def test_criterion_12_figure_regeneration(tmp_path):
    for fig_id in FIGURES:
        first = tmp_path / f"{fig_id}.csv"
        second = tmp_path / f"{fig_id}_again.csv"
        write_csv(build_figure(fig_id), str(first))
        write_csv(build_figure(meta=read_meta(str(first))), str(second))
        assert first.read_bytes() == second.read_bytes(), fig_id
