"""Characteristic-function pricing for arbitrary jump families and payoffs.

A payoff is one ``Payoff`` record: its profile Phi on log-price (always
given), its kinks and, for an integrable profile only, its Fourier
transform.  Every transform is taken to decay like |w|^-2, the tail of a
continuous profile with kinks, so the tail order is one constant here
rather than a field.  Any European claim whose profile has a transform can
be priced for any jump family directly from transforms:

    C(x, t_bar) = (1/2pi) integral  Phi~(w) exp(-[r + lam (1 - h~(-w))] t_bar
                                    - i w x) dw

with Phi~(w) = integral Phi(x) e^{i w x} dx and h~ the one-jump
characteristic function.  How the integrand is arranged depends on how
h~ behaves at large frequency:

* exponential, Gaussian, logistic, Gumbel: h~ -> 0, so the no-jump atom
  exp(-lam t_bar) Phi(x) is split off and added analytically; the
  remaining integrand decays like |Phi~ h~| and the t_bar -> 0 limit is
  exact.
* constant (uniform jumps): h~ ~ 1/w only, so the one-jump term
  lam t_bar E[Phi(x+J)] is split off as well; the remainder decays like
  |Phi~ h~^2|.
* ParetoHalf: Re(1 - h~(-w)) grows like sqrt(w) (infinite activity, the
  log-price density has no atom at all), so the raw integrand already
  decays faster than any power and no split is applied.
* discrete (two-point jumps): the log-price lives on a lattice and the
  weight never decays; the transform route converges only through the
  payoff's own O(w^-2) tail.  ``price_two_point_exact`` prices the same
  claim exactly by conditioning on the net jump count and should be
  preferred.

The spot enters only through the phase e^{-iwx}.  Both pricers take x as
a float or a 1-D array of log-prices through ``numerics.over_spots`` and
price the array in one go: F(w) = Phi~(w) weight(h~(-w)) / 2pi is
evaluated once per quadrature node for the whole column, at w >= 0 only,
and ``numerics.integrate_real_line`` contracts it against each spot's
phase e^{-iwx} (its ``spots``).  Phi~ and h~ are transforms of real
functions, so the integrand is Hermitian and its integral over the line
is that of twice its real part over w >= 0.  The grid is refined
until the worst spot has converged, so every price keeps the certificate
a single-spot call would give, and an AccuracyError carries that one
bound for every spot.  The figure builders price one column per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from .densities import Family, char_fn, mean_var
from .errors import InvalidParametersError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    expm1_complex,
    integrate_panels,
    integrate_real_line,
    mapped,
    over_spots,
    poisson_difference_pmf,
)
from .riskneutral import MarketParams

__all__ = [
    "Payoff",
    "butterfly_legs",
    "butterfly_payoff",
    "price_fourier",
    "price_two_point_exact",
]

# families whose characteristic function decays at least like |w|^-2
_DECAYING_FAMILIES = {
    Family.EXPONENTIAL,
    Family.GAUSSIAN,
    Family.LOGISTIC,
    Family.GUMBEL,
}

# decay rate of |Phi~(w)|: a continuous profile with kinks (the butterfly)
# has |Phi~(w)| ~ w^-2
_TAIL_ORDER = 2.0


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff profile on log-price.

    ``value`` (required) evaluates the profile on a numpy array of
    log-prices.  ``breakpoints`` are its kinks or jumps, used to seed
    oscillation-aware quadrature and to split piecewise-smooth averages.
    They must span the profile's support (where it is nonzero, or where a
    smooth profile carries its mass): the transform then turns at no more
    than max |k - x| radians per unit of frequency.  ``transform`` exists
    only for an integrable profile (None for binaries and vanillas); it is
    vectorised over real frequencies and decays like |w|^-2.
    """

    value: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple
    transform: Callable[[np.ndarray], np.ndarray] | None = None


def butterfly_legs(K: float, L: float) -> tuple:
    """The butterfly's (weight, strike) call legs, in summation order."""
    return ((2.0, K + 0.5 * L), (-1.0, K), (-1.0, K + L))


def butterfly_payoff(K: float, L: float) -> Payoff:
    """Butterfly position: long two calls at K + L/2, short calls at K and K + L.

    Its profile is continuous and supported on [ln K, ln(K+L)], so the
    transform route is free of Gibbs oscillation.  The transform has
    removable singularities at w = 0 and w = i; the implementation is a
    rearrangement in terms of (e^{iθ} - 1)/(iθ), θ = w d, which for real
    w is sin θ/θ + i 2 sin²(θ/2)/θ (1 at θ = 0): real arithmetic only,
    exact and cancellation-free for every real w.
    """
    if not (0.0 < K < math.inf and 0.0 < L < math.inf):
        raise InvalidParametersError("butterfly needs finite K > 0 and L > 0")
    k1, k2, k3 = math.log(K), math.log(K + 0.5 * L), math.log(K + L)
    d1, d3 = k1 - k2, k3 - k2
    c1, c3 = math.exp(d1) * d1, math.exp(d3) * d3
    legs = butterfly_legs(K, L)

    def ratio(w, d):
        """(e^{iwd} - 1)/(iwd) as its real and imaginary parts."""
        theta = w * d
        zero = theta == 0.0
        safe = np.where(zero, 1.0, theta)
        half = np.sin(0.5 * theta)
        return np.where(zero, 1.0, np.sin(theta) / safe), 2.0 * half * half / safe

    def transform(w):
        w = np.asarray(w, dtype=float)
        re1, im1 = ratio(w, d1)
        re3, im3 = ratio(w, d3)
        num_re, num_im = c1 * re1 + c3 * re3, c1 * im1 + c3 * im3
        # -e^{(1+iw) k2}/(1+iw) = -e^{k2} (cos + i sin)(w k2) (1 - iw)/(1 + w²)
        cos, sin = np.cos(w * k2), np.sin(w * k2)
        scale = -math.exp(k2) / (1.0 + w * w)
        a_re, a_im = scale * (cos + w * sin), scale * (sin - w * cos)
        return (a_re * num_re - a_im * num_im) + 1j * (a_re * num_im + a_im * num_re)

    def value(x):
        s = np.exp(x)
        return sum(wt * np.maximum(s - strike, 0.0) for wt, strike in legs)

    return Payoff(value=value, breakpoints=(k1, k2, k3), transform=transform)


def _one_jump_average(payoff: Payoff, x: float, lo: float, hi: float,
                      spec: QuadSpec) -> float:
    """E[Phi(x + J)] for J uniform on [lo, hi], with panels split at the kinks."""
    edges = [lo, *sorted(k - x for k in payoff.breakpoints if lo < k - x < hi), hi]
    return integrate_panels(lambda j: payoff.value(x + j), edges, spec) / (hi - lo)


def _osc_hint(payoff: Payoff, xs: np.ndarray, drift: float) -> float:
    """Bound on the integrand's phase speed in radians per unit frequency.

    Over the payoff's support the phase is w (k - x), so the bound is
    max |k - x| over breakpoints and spots, plus the jump law's drift
    lam t_bar |E[J]|, which the weight's phase adds; floored at 1.
    """
    ks = np.asarray(payoff.breakpoints or (0.0,), dtype=float)
    reach = float(np.max(np.abs(ks[:, None] - xs[None, :])))
    return max(1.0, reach + drift)


def price_fourier(params: MarketParams, payoff: Payoff, x, t_bar: float,
                  spec: QuadSpec = DEFAULT_QUAD):
    """Price a European claim with payoff profile ``payoff`` at log-price x.

    ``x`` is a float (the price is a float) or a 1-D array of log-prices
    (the prices are an ndarray); all spots share one frequency grid.  The
    payoff must carry a transform.
    """
    if payoff.transform is None:
        raise InvalidParametersError("the transform route needs a payoff with a transform")
    if not 0.0 <= t_bar < math.inf:
        raise InvalidParametersError("remaining time must be non-negative and finite")
    if t_bar == 0.0:
        return over_spots(payoff.value, x)

    lam, r, d = params.lam, params.r, params.density
    lt = lam * t_bar
    disc = math.exp(-r * t_bar)
    fam = d.family
    split_one_jump = fam is Family.CONSTANT

    if fam is Family.PARETO_HALF:
        extra = 0.0

        def weight(h):
            return disc * np.exp(-lt * (1.0 - h))
    else:
        extra = 2.0 if fam in _DECAYING_FAMILIES or split_one_jump else 0.0

        # both forms leave out the one-jump term lt h when it is in the atom
        lt_one = lt if split_one_jump else 0.0
        if lt <= 30.0:
            def weight(h):
                return disc * math.exp(-lt) * (expm1_complex(lt * h) - lt_one * h)
        else:
            # exp(-lt) underflows; evaluate in the always-bounded form
            def weight(h):
                return disc * (np.exp(lt * (h - 1.0)) - math.exp(-lt) * (1.0 + lt_one * h))

    def priced(xs):
        atom = 0.0 if fam is Family.PARETO_HALF else math.exp(-lt) * disc * payoff.value(xs)
        if split_one_jump:
            atom += lt * math.exp(-lt) * disc * np.array(
                [_one_jump_average(payoff, xi, d.a, d.b, spec) for xi in xs])

        def integrand(w):  # F(w), spot-free: the phases are applied per spot
            w = np.asarray(w, dtype=float)
            return payoff.transform(w) * weight(char_fn(d, -w)) / (2.0 * math.pi)

        hint = _osc_hint(payoff, xs, lt * abs(mean_var(d)[0]))
        return mapped(lambda: integrate_real_line(integrand, _TAIL_ORDER + extra, spec,
                                                  osc_hint=hint, spots=xs),
                      lambda val: atom + val.real)
    return over_spots(priced, x)


def price_two_point_exact(params: MarketParams, payoff: Payoff, x,
                          t_bar: float, tail_mass: float = 1e-14):
    """Exact price under the two-point jump law by net-jump-count conditioning.

    With jumps of +/- b the log-price after n_up - n_down net jumps is
    x + b (n_up - n_down), and the net count follows the difference of two
    independent Poisson laws.  The sum below is exact up to a Poisson tail
    of mass below ``tail_mass``; it replaces the transform route, which
    converges slowly for lattice jump laws.  ``x`` is a float or a 1-D
    array of log-prices, as for ``price_fourier``; each spot's sum is
    formed exactly as for a single-spot call.
    """
    d = params.density
    if d.family is not Family.DISCRETE:
        raise InvalidParametersError("net-count conditioning applies to the two-point law")
    if not 0.0 <= t_bar < math.inf:
        raise InvalidParametersError("remaining time must be non-negative and finite")
    if t_bar == 0.0:
        return over_spots(payoff.value, x)

    def priced(xs):
        up = params.lam * t_bar * d.a
        down = params.lam * t_bar * (1.0 - d.a)
        total = up + down
        # the net count is bounded by the total count, and Poisson(total) mass
        # beyond total + 12 sqrt(total) + 30 - log10(tail_mass) is negligible
        m_max = int(math.ceil(total + 12.0 * math.sqrt(total) + 30.0 - math.log10(tail_mass)))
        m = np.arange(-m_max, m_max + 1)
        pmf = poisson_difference_pmf(m_max, up, down)
        values = payoff.value(xs[:, None] + d.b * m[None, :])
        # a row-wise sum, so a spot's price does not depend on the other spots
        return math.exp(-params.r * t_bar) * (values * pmf).sum(axis=1)
    return over_spots(priced, x)
