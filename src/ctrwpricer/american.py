"""American binary puts and perpetual puts under the two-sided exponential model.

The American binary put pays one unit the instant the log-price X drops to
or below the log-strike k.  Because the process is a pure jump walk, the
optimal exercise boundary for this claim is the strike itself, which makes
both the transform and a time-domain integral available in closed form.
For vanilla perpetual puts the optimal boundary and value are algebraic.
Every function takes a two-sided exponential ``MarketParams``; the closed
American put and the vanilla perpetual formulas need its martingale intensity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParametersError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    as_rows,
    bessel_i1_scaled,
    integrate_semi_infinite,
    laplace_invert,
    log_normal_cdf,
    mapped,
    normal_cdf,
    over_spots,
)
from .european import PriceMethod, beta_pm, check_formed
from .riskneutral import MarketParams

__all__ = [
    "binary_put_laplace",
    "binary_put_price",
    "binary_put_closed",
    "perpetual_binary_put",
    "vanilla_exercise_trigger",
    "perpetual_exercise_boundary",
    "perpetual_vanilla_put",
]


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParametersError(f"{name} must be finite")


def _check_strike(K: float) -> None:
    # the negated range refuses NaN as well as infinities
    if not 0.0 < K < math.inf:
        raise InvalidParametersError("strike K must be positive and finite")


def _martingale_rates(m: MarketParams, formula: str) -> tuple[float, float]:
    """(rho, gamma) of a market at its martingale intensity, which ``formula`` assumes."""
    rates = m.exponential_rates()
    if not m.is_risk_neutral:
        raise InvalidParametersError(f"{formula} assumes the martingale intensity")
    return rates


# ----------------------------------------------------------------------
# American binary put
# ----------------------------------------------------------------------

def binary_put_laplace(m: MarketParams, k: float, x, s):
    """Transform (in remaining time) of the American binary put, log-strike k.

    x is a log-spot, a 1-D array of them or their rows (``as_rows``); an
    array gives one row per spot, all on one beta_pm.
    """
    s = np.asarray(s, dtype=complex)
    _, g = m.exponential_rates()
    d, shape = as_rows(x) - k, np.shape(x)[:1] + s.shape
    if np.all(d <= 0.0):  # every spot exercised: the cash transform, no roots needed
        return np.broadcast_to(1.0 / s, shape)
    _, bm = beta_pm(m, s)
    # exercised rows take the cash transform; clamping keeps their exp finite
    rows = np.where(d > 0.0, (g + bm) / g * np.exp(bm * np.maximum(d, 0.0)) / s, 1.0 / s)
    return rows.reshape(shape)


def _continuation(m: MarketParams, k: float, t_bar: float, price):
    """A pricer of a 1-D array of log-spots xs: exercised spots (x <= k)
    are exactly 1, the others 0 where no jump fits before t_bar (expiry
    included) and else ``price`` of their rows (``as_rows``).  An
    AccuracyError from ``price`` is widened to one best value and bound per
    spot of xs, exercised spots carrying 1 and 0.  A non-finite k is
    refused before any spot is priced."""
    _check_finite("log-strike k", k)

    def priced(xs):
        exercised = xs <= k
        prices, live = exercised.astype(float), ~exercised
        if not (m.jumps_before(t_bar) and live.any()):
            return prices

        def onto(spots, live_values):  # every spot of xs, the live ones from live_values
            spots[live] = np.ravel(live_values)
            return spots
        return mapped(lambda: price(as_rows(xs[live])), lambda values: onto(prices, values),
                      lambda bound: onto(np.zeros(xs.shape), bound))
    return priced


def binary_put_closed(m: MarketParams, k: float, x, t_bar: float,
                      spec: QuadSpec = DEFAULT_QUAD):
    """Time-domain American binary put via a three-kernel Bessel integral.

    All exponentially growing pieces are folded into a single exponent per
    kernel (using the log of the normal CDF for the boundary kernel), so
    the integrand is overflow-free even deep in the diffusion limit.  A 1-D
    array of log-spots x is priced by one batched quadrature over the
    spots above the strike; exercised spots (x <= k) are exactly 1.
    """
    m.check_horizon(t_bar)
    p, g = _martingale_rates(m, "the closed route (use --method laplace)")
    live = _continuation(m, k, t_bar, lambda x: _binary_put_integral(m, p, g, k - x, t_bar, spec))
    return over_spots(live, x)


def _binary_put_integral(m: MarketParams, p: float, g: float, ys: np.ndarray, t_bar: float,
                         spec: QuadSpec):
    """The continuation-region integral at each y = k - x < 0 of the rows
    ys (``as_rows``), by one batched quadrature."""
    lam, r = m.lam, m.r
    c = lam * t_bar
    check_formed(m, "(gamma + rho)^2", (g + p) * (g + p))
    check_formed(m, "2 gamma rho lam T", 2.0 * g * p * c)
    c1 = g * p * c / ((g + 1.0) * (p - 1.0))
    shift1 = c1 - (lam + r) * t_bar
    xf = math.sqrt(2.0 / (g * p * c))

    def integrand(u, y, up, down):
        xi = xf * u
        half = 0.5 * (g - p + 2.0) * xi
        gauss1 = np.exp(-((u - c1) ** 2) / c1 + shift1)
        t1 = up * gauss1 * normal_cdf(half + y / xi)
        t2 = down * gauss1 * normal_cdf(-half + y / xi)
        log3 = -p * y + log_normal_cdf(-0.5 * (g + p) * xi + y / xi) \
            + 2.0 * u - c - r * t_bar
        t3 = (g + p) * np.exp(log3)
        return (2.0 / g) * bessel_i1_scaled(2.0 * u) * (t1 + t2 - t3)

    center3 = 4.0 * g * p * c / (g + p) ** 2
    width3 = math.sqrt(2.0 * g * p * c) / (g + p)
    bumps = [(c1, math.sqrt(c1 / 2.0) + 1e-12), (center3, width3 + 1e-12)]
    weights = ((p - 1.0) * np.exp((g + 1.0 - p) * ys), (g + 1.0) * np.exp(-ys))
    return integrate_semi_infinite(integrand, spec, bumps=bumps, params=(ys, *weights))


def binary_put_price(m: MarketParams, k: float, x, t_bar: float,
                     method: PriceMethod = PriceMethod.LAPLACE,
                     spec: QuadSpec = DEFAULT_QUAD):
    """Finite-horizon American binary put; ``method`` is a PriceMethod or its value.

    On either route x may be a 1-D array of log-spots, priced by one
    quadrature (closed) or one inversion (Laplace) over the spots above
    the strike: exercised spots are exactly 1, and an AccuracyError
    carries one best value and bound per spot, shaped like x.
    """
    try:
        method = PriceMethod(method)
    except ValueError:
        pass
    if method not in (PriceMethod.CLOSED, PriceMethod.LAPLACE):
        raise InvalidParametersError(f"unsupported method {method!r} for American binary puts")
    m.exponential_rates()  # refuses other markets, also on the shortcut below
    if method is PriceMethod.CLOSED:
        return binary_put_closed(m, k, x, t_bar, spec)
    m.check_horizon(t_bar)
    live = _continuation(m, k, t_bar, lambda x: laplace_invert(
        lambda s: binary_put_laplace(m, k, x, s), t_bar, spec))
    return over_spots(live, x)


def perpetual_binary_put(m: MarketParams, k: float, x: float) -> float:
    """t_bar -> infinity limit of the American binary put, at any intensity."""
    _, g = m.exponential_rates()
    _check_finite("log-strike k", k)
    _check_finite("log-price x", x)
    if x <= k:
        return 1.0
    bm = float(beta_pm(m, 0.0)[1].real)
    return (g + bm) / g * math.exp(bm * (x - k))


# ----------------------------------------------------------------------
# vanilla perpetual put and its boundaries
# ----------------------------------------------------------------------

def vanilla_exercise_trigger(m: MarketParams, K: float) -> float:
    """Price level below which immediate exercise beats any single further jump.

    This is the fixed point of the one-step dominance condition for the
    vanilla put payoff; it sits slightly above the perpetual boundary.
    """
    p, g = _martingale_rates(m, "the exercise trigger")
    _check_strike(K)
    check_formed(m, "(gamma + rho)^2", (g + p) * (g + p))  # bounds the products below
    return K * ((g + p) * (g - p + 1.0) / (g * (g + 1.0))) ** (1.0 / p)


def perpetual_exercise_boundary(m: MarketParams, K: float) -> float:
    """Optimal exercise level of the perpetual vanilla put."""
    p, g = _martingale_rates(m, "the perpetual vanilla put")
    _check_strike(K)
    check_formed(m, "(gamma + rho)^2", (g + p) * (g + p))  # bounds the products below
    return K * (g + 1.0) * (g - p + 1.0) / (g * (g - p + 2.0))


def perpetual_vanilla_put(m: MarketParams, K: float, x: float) -> float:
    """Value of the perpetual vanilla put at log-price x."""
    p, g = m.exponential_rates()
    _check_finite("log-price x", x)
    zs = perpetual_exercise_boundary(m, K)  # refuses other intensities and a bad K
    if math.exp(x) <= zs:
        return K - math.exp(x)
    ls = math.log(zs)
    coef = (p - 1.0) / g * (K - g * zs / (g + 1.0))
    return coef * math.exp((g - p + 1.0) * (ls - x))


# ----------------------------------------------------------------------
# independent root-based checks (used by the tests; exported for reuse)
# ----------------------------------------------------------------------

def _trigger_residual(m: MarketParams, K: float, z: float) -> float:
    """Residual of the defining equation of vanilla_exercise_trigger at e^{z0}=z.

    Phi(z0) = lam/(lam+r) * integral of h(y - z0) Phi(y) dy with
    Phi(y) = (K - e^y)^+ and the two-sided exponential h.
    """
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    k = math.log(K)
    z0 = math.log(z)
    d = k - z0
    if d < 0:
        raise InvalidParametersError("trigger residual is defined for z <= K")
    pref = g * p / (g + p)
    down = K / g - z / (g + 1.0)
    up = K * (1.0 - math.exp(-p * d)) / p \
        - z * (math.expm1((1.0 - p) * d)) / (1.0 - p)
    return (K - z) - lam / (lam + r) * pref * (down + up)


def solve_trigger_numeric(m: MarketParams, K: float) -> float:
    """Root-finder cross-check of vanilla_exercise_trigger."""
    from scipy.optimize import brentq  # an oracle; kept off the import path

    return brentq(lambda z: _trigger_residual(m, K, z), 1e-6 * K, K * (1.0 - 1e-12),
                  xtol=1e-15, rtol=8.9e-16)


def _boundary_residual(m: MarketParams, K: float, z: float) -> float:
    """Value-matching residual for the perpetual boundary at e^{z*}=z."""
    p, g = m.exponential_rates()
    return (p - 1.0) * (K / g - z / (g + 1.0)) - (K - z)


def solve_boundary_numeric(m: MarketParams, K: float) -> float:
    """Root-finder cross-check of perpetual_exercise_boundary."""
    from scipy.optimize import brentq  # an oracle; kept off the import path

    return brentq(lambda z: _boundary_residual(m, K, z), 1e-6 * K, K * (1.0 - 1e-12),
                  xtol=1e-15, rtol=8.9e-16)
