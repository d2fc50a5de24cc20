"""American binary puts and perpetual puts under the two-sided exponential model.

The American binary put pays one unit the instant the log-price X drops to
or below the log-strike k.  Because the process is a pure jump walk, the
optimal exercise boundary for this claim is the strike itself, which makes
both the transform and a time-domain integral available in closed form.
For vanilla perpetual puts the optimal boundary and value are algebraic.
Every function takes a two-sided exponential ``MarketParams``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParametersError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    bessel_i1_scaled,
    integrate_semi_infinite,
    laplace_invert,
    log_normal_cdf,
    normal_cdf,
)
from .european import PriceMethod, beta_pm
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


# ----------------------------------------------------------------------
# American binary put
# ----------------------------------------------------------------------

def binary_put_laplace(m: MarketParams, k: float, x: float, s):
    """Transform (in remaining time) of the American binary put, log-strike k."""
    s = np.asarray(s, dtype=complex)
    _, g = m.exponential_rates()
    if x <= k:
        return 1.0 / s
    _, bm = beta_pm(m, s)
    return (g + bm) / g * np.exp(bm * (x - k)) / s


def binary_put_closed(m: MarketParams, k: float, x: float, t_bar: float,
                      spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Time-domain American binary put via a three-kernel Bessel integral.

    All exponentially growing pieces are folded into a single exponent per
    kernel (using the log of the normal CDF for the boundary kernel), so
    the integrand is overflow-free even deep in the diffusion limit.
    """
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    if x <= k:
        return 1.0
    if t_bar == 0.0:
        return 0.0
    y = k - x  # negative in the continuation region
    c = lam * t_bar
    c1 = g * p * c / ((g + 1.0) * (p - 1.0))
    shift1 = c1 - (lam + r) * t_bar
    xf = math.sqrt(2.0 / (g * p * c))

    def integrand(u):
        xi = xf * u
        half = 0.5 * (g - p + 2.0) * xi
        gauss1 = np.exp(-((u - c1) ** 2) / c1 + shift1)
        t1 = (p - 1.0) * math.exp((g + 1.0 - p) * y) * gauss1 * normal_cdf(half + y / xi)
        t2 = (g + 1.0) * math.exp(-y) * gauss1 * normal_cdf(-half + y / xi)
        log3 = -p * y + log_normal_cdf(-0.5 * (g + p) * xi + y / xi) \
            + 2.0 * u - c - r * t_bar
        t3 = (g + p) * np.exp(log3)
        return (2.0 / g) * bessel_i1_scaled(2.0 * u) * (t1 + t2 - t3)

    center3 = 4.0 * g * p * c / (g + p) ** 2
    width3 = math.sqrt(2.0 * g * p * c) / (g + p)
    bumps = [(c1, math.sqrt(c1 / 2.0) + 1e-12), (center3, width3 + 1e-12)]
    return integrate_semi_infinite(integrand, spec, bumps=bumps)


def binary_put_price(m: MarketParams, k: float, x: float, t_bar: float,
                     method: PriceMethod = PriceMethod.LAPLACE,
                     spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Finite-horizon American binary put; ``method`` is a PriceMethod or its value."""
    try:
        method = PriceMethod(method)
    except ValueError:
        pass
    if method not in (PriceMethod.CLOSED, PriceMethod.LAPLACE):
        raise InvalidParametersError(f"unsupported method {method!r} for American binary puts")
    m.exponential_rates()  # refuses other markets, also on the shortcuts below
    if x <= k:
        return 1.0
    if t_bar == 0.0:
        return 0.0
    if method is PriceMethod.CLOSED:
        return binary_put_closed(m, k, x, t_bar, spec)
    return laplace_invert(lambda s: binary_put_laplace(m, k, x, s), t_bar, spec)


def perpetual_binary_put(m: MarketParams, k: float, x: float) -> float:
    """t_bar -> infinity limit of the American binary put."""
    p, g = m.exponential_rates()
    if x <= k:
        return 1.0
    return (p - 1.0) / g * math.exp(-(g - p + 1.0) * (x - k))


# ----------------------------------------------------------------------
# vanilla perpetual put and its boundaries
# ----------------------------------------------------------------------

def vanilla_exercise_trigger(m: MarketParams, K: float) -> float:
    """Price level below which immediate exercise beats any single further jump.

    This is the fixed point of the one-step dominance condition for the
    vanilla put payoff; it sits slightly above the perpetual boundary.
    """
    p, g = m.exponential_rates()
    return K * ((g + p) * (g - p + 1.0) / (g * (g + 1.0))) ** (1.0 / p)


def perpetual_exercise_boundary(m: MarketParams, K: float) -> float:
    """Optimal exercise level of the perpetual vanilla put."""
    p, g = m.exponential_rates()
    return K * (g + 1.0) * (g - p + 1.0) / (g * (g - p + 2.0))


def perpetual_vanilla_put(m: MarketParams, K: float, x: float) -> float:
    """Value of the perpetual vanilla put at log-price x."""
    p, g = m.exponential_rates()
    zs = perpetual_exercise_boundary(m, K)
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
