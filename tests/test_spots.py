"""Every pricer takes its spots through one adapter and reports its estimate
in one shape: a finite log-spot prices to a float, a 1-D column to an array
of its shape, and so does an AccuracyError's best value and bound."""

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
from ctrwpricer import american, european, fourier
from ctrwpricer.american import binary_put_price
from ctrwpricer.errors import AccuracyError, InvalidParametersError
from ctrwpricer.fourier import price_two_point_exact

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
    """Every kernel a pricer could reach fails the test if it runs."""
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for module, names in ((european, ("integrate_semi_infinite", "laplace_invert")),
                          (american, ("integrate_semi_infinite", "laplace_invert")),
                          (fourier, ("integrate_real_line", "integrate_panels",
                                     "poisson_difference_pmf"))):
        for name in names:
            monkeypatch.setattr(module, name, kernel)


@pytest.mark.parametrize("name", sorted(PRICERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [False, True])
def test_non_finite_spot_refused_before_any_kernel(no_kernel, name, bad, column):
    x = np.array([SPOT[name], bad, SPOT[name]]) if column else bad
    with pytest.raises(InvalidParametersError):
        PRICERS[name](x, QuadSpec())


# name: pricer of (x, t_bar), for every pricer that takes its own horizon
HORIZON = {
    "european-closed": lambda x, t: european_price(_exp(2.0, 0.1), Contract(
        PayoffKind.VANILLA_CALL, 1.0, t), x, PriceMethod.CLOSED),
    "american-closed": lambda x, t: binary_put_price(MarketParams.exponential(2.0, 9.0, R),
                                                     0.0, x, t, PriceMethod.CLOSED),
    "american-laplace": lambda x, t: binary_put_price(_exp(20.0, 0.05), 0.0, x, t,
                                                      PriceMethod.LAPLACE),
    "fourier": lambda x, t: price_fourier(_exp(2.0, 0.1), BUTTERFLY, x, t),
    "two-point": lambda x, t: price_two_point_exact(TWO_POINT, BUTTERFLY, x, t),
}


@pytest.mark.parametrize("name", sorted(HORIZON))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_horizon_refused_before_any_kernel(no_kernel, name, bad):
    with pytest.raises(InvalidParametersError):
        HORIZON[name](SPOT[name], bad)


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
