"""Black-Scholes reference formulas and implied volatility.

Used as the diffusion benchmark the jump model collapses to when jumps
become frequent and small, and for translating model prices into implied
volatilities.
"""

from __future__ import annotations

import math

from .errors import InvalidParametersError, OutOfBandError
from .numerics import normal_cdf

__all__ = [
    "bs_vanilla_call",
    "bs_vanilla_put",
    "bs_binary_call",
    "bs_binary_put",
    "implied_vol",
    "wiener_perpetual_put",
    "wiener_exercise_boundary",
]

_SIGMA_LO = 1e-4
_SIGMA_HI = 5.0


def _d1_d2(spot, strike, r, sigma, T):
    if spot <= 0 or strike <= 0:
        raise InvalidParametersError("spot and strike must be positive")
    if sigma <= 0 or T < 0:
        raise InvalidParametersError("sigma must be positive and T non-negative")
    if T == 0:
        return math.inf if spot > strike else -math.inf, None
    sq = sigma * math.sqrt(T)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * T) / sq
    return d1, d1 - sq


def bs_vanilla_call(spot, strike, r, sigma, T):
    if T == 0:
        return max(spot - strike, 0.0)
    d1, d2 = _d1_d2(spot, strike, r, sigma, T)
    return spot * normal_cdf(d1) - strike * math.exp(-r * T) * normal_cdf(d2)


def bs_vanilla_put(spot, strike, r, sigma, T):
    call = bs_vanilla_call(spot, strike, r, sigma, T)
    return call + strike * math.exp(-r * T) - spot


def bs_binary_call(spot, strike, r, sigma, T):
    """Cash-or-nothing call paying 1 when S_T >= K."""
    if T == 0:
        return 1.0 if spot >= strike else 0.0
    _, d2 = _d1_d2(spot, strike, r, sigma, T)
    return math.exp(-r * T) * normal_cdf(d2)


def bs_binary_put(spot, strike, r, sigma, T):
    return math.exp(-r * T) - bs_binary_call(spot, strike, r, sigma, T)


def implied_vol(price, spot, strike, r, T, kind: str = "vanilla-call") -> float:
    """Invert a Black-Scholes price for sigma on [1e-4, 5].

    Newton steps on the closed-form vega inside a bracket that shrinks
    around the root; a step that would leave the bracket, as it does where
    the vega is tiny, is replaced by bisection.  The residual at the
    returned sigma is at most 1e-10 * strike.  Prices outside the
    attainable band raise OutOfBandError, and so does a band narrower than
    that residual, where every sigma would fit.
    """
    if kind != "vanilla-call":
        raise InvalidParametersError(f"implied vol supports vanilla calls, not {kind!r}")
    if T <= 0:
        raise InvalidParametersError("T must be positive for implied vol")
    lo_price = bs_vanilla_call(spot, strike, r, _SIGMA_LO, T)
    hi_price = bs_vanilla_call(spot, strike, r, _SIGMA_HI, T)
    if not (lo_price <= price <= hi_price):
        raise OutOfBandError(
            f"price {price!r} outside attainable band "
            f"[{lo_price!r}, {hi_price!r}] for sigma in [{_SIGMA_LO}, {_SIGMA_HI}]"
        )
    if hi_price - lo_price <= 1e-10 * strike:
        raise OutOfBandError(
            f"price is flat in sigma: band [{lo_price!r}, {hi_price!r}] is within "
            f"the residual tolerance, so every sigma in [{_SIGMA_LO}, {_SIGMA_HI}] fits"
        )

    def resid(sigma):
        return bs_vanilla_call(spot, strike, r, sigma, T) - price

    lo, hi = _SIGMA_LO, _SIGMA_HI
    sigma = 0.5 * (lo + hi)
    for _ in range(100):
        f = resid(sigma)
        lo, hi = (lo, sigma) if f > 0.0 else (sigma, hi)
        d1, _ = _d1_d2(spot, strike, r, sigma, T)
        vega = spot * math.sqrt(T / (2.0 * math.pi)) * math.exp(-0.5 * d1 * d1)
        # sigma ends the bracket, so a step twice its length leaves it; bisect
        # then without dividing, as a subnormal vega overflows f / vega
        new = sigma - f / vega if abs(f) < 2.0 * vega * (hi - lo) else math.inf
        new = new if lo <= new <= hi else 0.5 * (lo + hi)
        sigma, step = new, new - sigma
        if abs(step) <= 1e-14 + 8.9e-16 * sigma:
            break
    if abs(resid(sigma)) > 1e-10 * strike:
        raise OutOfBandError(
            f"implied vol residual {resid(sigma)!r} above tolerance at sigma={sigma!r}"
        )
    return float(sigma)


def wiener_exercise_boundary(strike, r, sigma):
    """Perpetual American put exercise level for the diffusion model."""
    return 2.0 * r * strike / (2.0 * r + sigma * sigma)


def wiener_perpetual_put(spot, strike, r, sigma):
    """Perpetual American put value for the diffusion model."""
    zs = wiener_exercise_boundary(strike, r, sigma)
    if spot <= zs:
        return strike - spot
    coef = sigma * sigma * strike / (2.0 * r + sigma * sigma)
    return coef * (zs / spot) ** (2.0 * r / (sigma * sigma))
