"""Every pricer takes its spots through one adapter and reports its estimate
in one shape: a finite log-spot prices to a float, a 1-D column to an array
of its shape, and so does an AccuracyError's best value and bound.  Every
market-priced entry refuses a bad horizon by one rule before any kernel
runs or any Monte Carlo block is drawn."""

import math

import numpy as np
import pytest

from ctrwpricer import (
    Contract,
    Family,
    MarketParams,
    PayoffKind,
    PriceMethod,
    QuadSpec,
    butterfly_payoff,
    european_price,
    fit_from_moments,
    price_fourier,
)
from ctrwpricer import american, european, fourier, montecarlo
from ctrwpricer.american import binary_put_price
from ctrwpricer.errors import AccuracyError, InvalidParametersError
from ctrwpricer.fourier import price_two_point_exact
from ctrwpricer.montecarlo import (
    MCConfig,
    martingale_check,
    price_american_binary_put_mc,
    price_european_mc,
    simulate_terminal,
)

R = 0.04
CALL = Contract(PayoffKind.VANILLA_CALL, 1.0, 0.25)
PUT = Contract(PayoffKind.VANILLA_PUT, 1.0, 0.25)
BUTTERFLY = butterfly_payoff(100.0, 10.0)


def _exp(rho, sigma):
    return MarketParams.from_rho_sigma(rho, R, sigma)


# name: (pricer of (x, spec), a spot's log-price, a spec at which that spot
# and a column holding it fail).  Each spec was found by a search of the
# admissible space for a spot whose estimate does not converge.
FAILING = {
    "european-closed": (lambda x, spec: european_price(_exp(2.0, 0.1), CALL, x,
                                                       PriceMethod.CLOSED, spec),
                        math.log(0.8), QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=512)),
    "european-closed-put": (lambda x, spec: european_price(_exp(2.0, 0.1), PUT, x,
                                                           PriceMethod.CLOSED, spec),
                            math.log(0.8), QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=512)),
    "european-laplace": (lambda x, spec: european_price(
        _exp(2000.0, 0.8), Contract(PayoffKind.BINARY_CALL, 1.0, 50.0), x,
        PriceMethod.LAPLACE, spec), math.log(2.0), QuadSpec(rel_tol=1e-13, abs_tol=1e-300)),
    "american-closed": (lambda x, spec: binary_put_price(MarketParams.exponential(2.0, 9.0, R),
                                                         0.0, x, 1.0, PriceMethod.CLOSED, spec),
                        math.log(2.0), QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=512)),
    "american-laplace": (lambda x, spec: binary_put_price(_exp(20.0, 0.05), 0.0, x, 1e-4,
                                                          PriceMethod.LAPLACE, spec),
                         math.log(2.0), QuadSpec(rel_tol=1e-13, abs_tol=1e-300)),
    "fourier": (lambda x, spec: price_fourier(_exp(2.0, 0.1), BUTTERFLY, x, 0.25, spec),
                math.log(95.0), QuadSpec(rel_tol=1e-12, abs_tol=1e-16, max_nodes=256)),
}

TWO_POINT = MarketParams.risk_neutral(R, fit_from_moments(Family.DISCRETE, 1e-3, 1e-4))
PRICERS = {name: pricer for name, (pricer, _, _) in FAILING.items()}
PRICERS["two-point"] = lambda x, spec: price_two_point_exact(TWO_POINT, BUTTERFLY, x, 0.25)
SPOT = {name: x for name, (_, x, _) in FAILING.items()}
SPOT["two-point"] = math.log(95.0)


@pytest.fixture
def no_kernel(monkeypatch):
    """Every kernel a pricer could reach, and every Monte Carlo block, fails
    the test if it runs."""
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for module, names in ((european, ("integrate_semi_infinite", "laplace_invert",
                                      "mean_var")),
                          (american, ("integrate_semi_infinite", "laplace_invert")),
                          (fourier, ("integrate_real_line", "integrate_panels",
                                     "poisson_difference_pmf")),
                          (montecarlo, ("_block_rng",))):
        for name in names:
            monkeypatch.setattr(module, name, kernel)


@pytest.mark.parametrize("name", sorted(PRICERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [False, True])
def test_non_finite_spot_refused_before_any_kernel(no_kernel, name, bad, column):
    x = np.array([SPOT[name], bad, SPOT[name]]) if column else bad
    with pytest.raises(InvalidParametersError):
        PRICERS[name](x, QuadSpec())


AMERICAN = MarketParams.exponential(2.0, 9.0, R)
MC = MCConfig(paths=1000, seed=0)


def _halved(m):
    """m at half its intensity: a market that admits every horizon m does."""
    return MarketParams(m.r, m.density, 0.5 * m.lam)


# name: (market, pricer of (market, t_bar)), for every market-priced entry
# that takes its own horizon
HORIZON = {
    "european-closed": (_exp(2.0, 0.1), lambda m, t: european_price(m, Contract(
        PayoffKind.VANILLA_CALL, 1.0, t), SPOT["european-closed"], PriceMethod.CLOSED)),
    "vanilla-call-closed": (_exp(2.0, 0.1), lambda m, t: european.vanilla_call_closed(
        m, 1.0, SPOT["european-closed"], t)),
    "binary-call-closed": (_exp(2.0, 0.1), lambda m, t: european.binary_call_closed(
        m, 0.0, SPOT["european-closed"], t)),
    "american-closed": (AMERICAN, lambda m, t: binary_put_price(
        m, 0.0, SPOT["american-closed"], t, PriceMethod.CLOSED)),
    "american-laplace": (_exp(20.0, 0.05), lambda m, t: binary_put_price(
        m, 0.0, SPOT["american-laplace"], t, PriceMethod.LAPLACE)),
    "binary-put-closed": (AMERICAN, lambda m, t: american.binary_put_closed(
        m, 0.0, SPOT["american-closed"], t)),
    "fourier": (_exp(2.0, 0.1), lambda m, t: price_fourier(m, BUTTERFLY, SPOT["fourier"], t)),
    # the first market admits the edge horizon of the second
    "fourier-stack": (_exp(2.0, 0.1), lambda m, t: price_fourier(
        [_halved(m), m], BUTTERFLY, SPOT["fourier"], t)),
    "two-point": (TWO_POINT, lambda m, t: price_two_point_exact(
        m, BUTTERFLY, SPOT["two-point"], t)),
    "simulate_terminal": (AMERICAN, lambda m, t: simulate_terminal(m, 0.1, t, MC)),
    "price_european_mc": (AMERICAN, lambda m, t: price_european_mc(
        m, Contract(PayoffKind.VANILLA_CALL, 1.0, t), 0.1, MC)),
    "martingale_check": (AMERICAN, lambda m, t: martingale_check(m, 0.1, t, MC)),
    "price_american_binary_put_mc": (AMERICAN, lambda m, t: price_american_binary_put_mc(
        m, -0.02, 0.1, t, MC)),
    "log_return_moments": (AMERICAN, lambda m, t: european.log_return_moments(m, t)),
}


def _edge(m):
    """The least horizon T with (r + lam) T = 2^52 or more: 2^52 / (r + lam),
    one ulp up where the product rounds below 2^52."""
    t_bar = 2.0**52 / (m.r + m.lam)
    return t_bar if (m.r + m.lam) * t_bar >= 2.0**52 else math.nextafter(t_bar, math.inf)


@pytest.mark.parametrize("name", sorted(HORIZON))
@pytest.mark.parametrize("bad", [-1.0, -1e300, math.nan, math.inf, -math.inf, "edge"])
def test_bad_horizon_refused_before_any_kernel(no_kernel, name, bad):
    market, price = HORIZON[name]
    with pytest.raises(InvalidParametersError):
        price(market, _edge(market) if bad == "edge" else bad)


def test_a_stack_admits_the_edge_of_its_second_market_in_its_first():
    # so fourier-stack's edge is refused by the second market's check
    market = HORIZON["fourier-stack"][0]
    _halved(market).check_horizon(_edge(market))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wing", [False, True])
def test_non_finite_butterfly_refused_before_any_kernel(no_kernel, bad, wing):
    with pytest.raises(InvalidParametersError):
        butterfly_payoff(100.0, bad) if wing else butterfly_payoff(bad, 10.0)


@pytest.mark.parametrize("name", sorted(PRICERS))
def test_empty_column_prices_to_an_empty_array(no_kernel, name):
    prices = PRICERS[name](np.array([]), QuadSpec())
    assert isinstance(prices, np.ndarray)
    assert prices.shape == (0,) and prices.dtype == float


@pytest.mark.parametrize("name", sorted(FAILING))
def test_error_estimate_is_shaped_like_x(name):
    # a scalar x carries a float best value and bound; a column, arrays of
    # its shape.  Every route but the transform one refines each spot alone,
    # so there the failing spot's entries are its own.
    price, x, spec = FAILING[name]
    with pytest.raises(AccuracyError) as alone:
        price(x, spec)
    assert type(alone.value.best) is float and type(alone.value.bound) is float
    xs = np.array([x, x + 0.05])
    with pytest.raises(AccuracyError) as column:
        price(xs, spec)
    best, bound = column.value.best, column.value.bound
    assert isinstance(best, np.ndarray) and isinstance(bound, np.ndarray)
    assert best.shape == bound.shape == xs.shape
    assert np.all(bound >= 0.0)
    if name != "fourier":
        assert (best[0], bound[0]) == (alone.value.best, alone.value.bound)
