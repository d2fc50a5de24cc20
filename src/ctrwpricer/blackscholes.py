"""Black-Scholes reference formulas and implied volatility.

Used as the diffusion benchmark the jump model collapses to when jumps
become frequent and small, and for translating model prices into implied
volatilities.
"""

from __future__ import annotations

import math

import numpy as np

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
_TWO_PI = 2.0 * math.pi


def _check(spot, strike, r, sigma, T) -> None:
    """Refuse inputs outside the formulas' domain, expiry included; each
    negated range refuses NaN and the infinities as well."""
    if not (0.0 < spot < math.inf and 0.0 < strike < math.inf):
        raise InvalidParametersError("spot and strike must be positive and finite")
    if not (0.0 < sigma < math.inf and 0.0 <= T < math.inf):
        raise InvalidParametersError("sigma must be positive and T non-negative, both finite")
    if not math.isfinite(r):
        raise InvalidParametersError(f"rate must be finite, got {r!r}")


def _d1_d2(spot, strike, r, sigma, T):
    sq = sigma * math.sqrt(T)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * T) / sq
    return d1, d1 - sq


def bs_vanilla_call(spot, strike, r, sigma, T):
    _check(spot, strike, r, sigma, T)
    if T == 0:
        return float(max(spot - strike, 0.0))
    d1, d2 = _d1_d2(spot, strike, r, sigma, T)
    return spot * normal_cdf(d1) - strike * math.exp(-r * T) * normal_cdf(d2)


def bs_vanilla_put(spot, strike, r, sigma, T):
    call = bs_vanilla_call(spot, strike, r, sigma, T)
    return call + strike * math.exp(-r * T) - spot


def bs_binary_call(spot, strike, r, sigma, T):
    """Cash-or-nothing call paying 1 when S_T >= K."""
    _check(spot, strike, r, sigma, T)
    if T == 0:
        return 1.0 if spot >= strike else 0.0
    _, d2 = _d1_d2(spot, strike, r, sigma, T)
    return math.exp(-r * T) * normal_cdf(d2)


def bs_binary_put(spot, strike, r, sigma, T):
    return math.exp(-r * T) - bs_binary_call(spot, strike, r, sigma, T)


def implied_vol(price, spot, strike, r, T):
    """Invert a Black-Scholes vanilla call price for sigma on [1e-4, 5].

    Newton steps on the closed-form vega inside a bracket that shrinks
    around the root; a step that would leave the bracket, as it does where
    the vega is tiny, is replaced by bisection.  A price below the rounding
    floor of one of the spot's size takes its steps on log prices instead,
    and a price at the band's floor is its sigma, 1e-4.  The residual at
    the returned sigma is at most 1e-10 * strike.  Prices outside the
    attainable band raise OutOfBandError, and so does a band narrower than
    that residual, where every sigma would fit.

    ``price`` or ``spot`` may be an ndarray: the two are broadcast together
    and solved in one array loop by the same rules, each cell frozen where
    it stops, and the vols come back in their shape, NaN in each cell a
    float call would refuse with OutOfBandError.  Floats take a loop of
    their own, over ten times cheaper for one cell, and give a float.
    """
    if isinstance(price, np.ndarray) or isinstance(spot, np.ndarray):
        return _implied_vols(price, spot, strike, r, T)
    if T <= 0:
        raise InvalidParametersError("T must be positive for implied vol")
    if spot <= 0 or strike <= 0:
        raise InvalidParametersError("spot and strike must be positive")
    # bs_vanilla_call's arithmetic with its sigma-free parts hoisted, so the
    # band's ends carry its bits and the price and the vega of a step share
    # one d1
    log_moneyness, root_t = math.log(spot / strike), math.sqrt(T)
    discounted_strike = strike * math.exp(-r * T)

    def value(sigma):
        """The call's price at sigma, and its d1."""
        sq = sigma * root_t
        d1 = (log_moneyness + (r + 0.5 * sigma * sigma) * T) / sq
        return spot * normal_cdf(d1) - discounted_strike * normal_cdf(d1 - sq), d1

    lo_price, _ = value(_SIGMA_LO)
    hi_price, _ = value(_SIGMA_HI)
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
    if price == lo_price:  # 1e-4 prices it exactly; a zero price has no log to step on
        return _SIGMA_LO

    vega_scale = spot * math.sqrt(T / _TWO_PI)
    # deep out of the money the price falls like e^{-c/sigma^2}, so a step
    # f / vega cuts its log by about 1: a price far below the spot's
    # rounding, 2^-52 spot, takes dozens of such steps, more than the 100
    # allowed below about 1e-45.  Newton on ln C - ln price takes a few
    in_logs = 0.0 < price < 2.0**-52 * spot

    lo, hi = _SIGMA_LO, _SIGMA_HI
    sigma = 0.5 * (lo + hi)
    for _ in range(100):
        c, d1 = value(sigma)
        f = c - price
        lo, hi = (lo, sigma) if f > 0.0 else (sigma, hi)
        vega = vega_scale * math.exp(-0.5 * d1 * d1)
        # the step f / vega, or on log prices (ln C - ln price) C / vega
        if in_logs:
            f = (math.log(c) - math.log(price)) * c if c > 0.0 else -math.inf
        # sigma ends the bracket, so a step twice its length leaves it; bisect
        # then without dividing, as a subnormal vega overflows f / vega
        new = sigma - f / vega if abs(f) < 2.0 * vega * (hi - lo) else math.inf
        new = new if lo <= new <= hi else 0.5 * (lo + hi)
        # a step back onto an end of the bracket, a sigma already evaluated,
        # means the residual sits at the price's rounding floor: there a tiny
        # vega turns its last ulps into steps between the two ends
        floored = new == lo or new == hi
        sigma, step = new, new - sigma
        if floored or abs(step) <= 1e-14 + 8.9e-16 * sigma:
            break
    c, _ = value(sigma)
    residual = c - price
    if abs(residual) > 1e-10 * strike:
        raise OutOfBandError(
            f"implied vol residual {residual!r} above tolerance at sigma={sigma!r}"
        )
    return float(sigma)


def _implied_vols(price, spot, strike, r, T) -> np.ndarray:
    """``implied_vol``'s rules cell by cell on broadcast arrays: every
    step below is the float loop's, as array arithmetic over the cells
    still solving, and a cell leaves the loop at the iteration where its
    float solve stops, so each cell costs the float solve's normal_cdf
    evaluations.  A refused cell is NaN."""
    if T <= 0:
        raise InvalidParametersError("T must be positive for implied vol")
    price, spot = np.broadcast_arrays(np.asarray(price, dtype=float),
                                      np.asarray(spot, dtype=float))
    if strike <= 0 or np.any(spot <= 0):
        raise InvalidParametersError("spot and strike must be positive")
    shape, p, s = price.shape, price.ravel(), spot.ravel()
    root_t, discounted_strike = math.sqrt(T), strike * math.exp(-r * T)
    # math.log, so the band's ends carry the float loop's bits
    log_moneyness = np.array([math.log(v) for v in (s / strike).tolist()])

    def value(sigma, log_moneyness, spot):
        sq = sigma * root_t
        d1 = (log_moneyness + (r + 0.5 * sigma * sigma) * T) / sq
        return spot * normal_cdf(d1) - discounted_strike * normal_cdf(d1 - sq), d1

    lo_price, _ = value(_SIGMA_LO, log_moneyness, s)
    hi_price, _ = value(_SIGMA_HI, log_moneyness, s)
    solvable = (lo_price <= p) & (p <= hi_price)  # False on a NaN price
    # an infinite band end has no finite width; it is not flat either
    width = np.subtract(hi_price, lo_price, out=np.full(p.size, np.inf),
                        where=solvable & (hi_price < np.inf))
    solvable &= width > 1e-10 * strike
    vols = np.full(p.size, np.nan)
    at_floor = solvable & (p == lo_price)
    vols[at_floor] = _SIGMA_LO
    cells = np.flatnonzero(solvable & ~at_floor)

    # per cell still solving: its slot in ``cells``, its constants, its
    # bracket and its sigma
    slot = np.arange(cells.size)
    target, sp = p[cells], s[cells]
    in_logs = (0.0 < target) & (target < 2.0**-52 * sp)
    log_target = np.zeros(cells.size)
    log_target[in_logs] = [math.log(v) for v in target[in_logs].tolist()]
    fixed = np.array([target, log_moneyness[cells], sp, sp * math.sqrt(T / _TWO_PI),
                      log_target])
    lo, hi = np.full(cells.size, _SIGMA_LO), np.full(cells.size, _SIGMA_HI)
    sigma = 0.5 * (lo + hi)
    solved = np.empty(cells.size)
    for _ in range(100):
        if not slot.size:
            break
        target, lm, sp, vega_scale, log_target = fixed
        c, d1 = value(sigma, lm, sp)
        f = c - target
        above = f > 0.0
        lo, hi = np.where(above, lo, sigma), np.where(above, sigma, hi)
        vega = vega_scale * np.exp(-0.5 * d1 * d1)
        if np.count_nonzero(in_logs):
            logged = in_logs & (c > 0.0)
            log_c = np.log(c, out=np.zeros(c.size), where=logged)
            f = np.where(logged, (log_c - log_target) * c, np.where(in_logs, -np.inf, f))
        # as the float loop: a step that would leave the bracket, or divide
        # by a subnormal vega, is not taken (inf) and bisection replaces it
        newton = np.abs(f) < 2.0 * vega * (hi - lo)
        new = sigma - np.divide(f, vega, out=np.full(f.size, -np.inf), where=newton)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        floored = (new == lo) | (new == hi)
        sigma, step = new, new - sigma
        done = floored | (np.abs(step) <= 1e-14 + 8.9e-16 * sigma)
        if np.count_nonzero(done):
            solved[slot[done]] = sigma[done]
            keep = ~done
            slot, fixed, in_logs = slot[keep], fixed[:, keep], in_logs[keep]
            lo, hi, sigma = lo[keep], hi[keep], sigma[keep]
    solved[slot] = sigma
    c, _ = value(solved, log_moneyness[cells], s[cells])
    residual = c - p[cells]
    vols[cells] = np.where(np.abs(residual) > 1e-10 * strike, np.nan, solved)
    return vols.reshape(shape)


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
