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
bound for every spot.

``price_fourier`` also takes a sequence of markets on one payoff and one
column of spots, and a single market is a stack of one.  Each market's
integrand is its own factor weight(h~(-w))/2pi applied to the shared
Phi~(w), so one stacked integral evaluates Phi~, the offset tables and the
slice phases once per panel geometry for all of them, while every market
keeps the nodes, panels and bits of its own call.  The stack raises the
error its first failing market would raise alone.  The fig3 and fig4
builders price their transform columns in one call per figure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from .densities import Family, char_fn, mean_var
from .errors import AccuracyError, InvalidParametersError, ValidationError
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
# the Poisson mass the two-point net-count sum leaves out
_TAIL_MASS = 1e-14
# Reach of the two-point net-count sum, in jumps either way.  Its pmf costs
# O(reach^2) and each spot's lattice row 16 bytes a jump: at this budget
# about 0.2 s and 0.5 MB on one core.  It admits lam T up to about 3.1e4,
# sixteen times the largest the figures and tests take (1.9e3).
MAX_NET_JUMPS = 1 << 15
# the largest lattice log-price: twice its e^x, the butterfly's long legs,
# stays below the largest double (below it, e^x underflows harmlessly to 0)
_MAX_LOG_PRICE = math.log(sys.float_info.max / 2.0)


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


def _osc_hint(payoff: Payoff, xs: np.ndarray, d, lt: float) -> float:
    """Bound on the phase speed of F(w) e^{-iwx} in radians per unit of
    frequency, which sets how finely the quadrature starts.

    Over the payoff's support the phase of Phi~(w) e^{-iwx} turns at
    |k - x| at most, so the payoff's part is max |k - x| over breakpoints
    and spots.  The jump weight adds the phase of a function of h~(-w) =
    E[e^{-iwJ}], which turns at |d/dw h~| <= E|J| <= sqrt(E[J^2]) per unit
    of its modulus: at most lam t_bar sqrt(E[J^2]) through
    exp(lam t_bar (h~ - 1)), and about sqrt(E[J^2]) through the split
    forms when lam t_bar is small, hence max(1, lam t_bar) sqrt(E[J^2]).
    The bound only seeds the first pass: the second pass still certifies
    every panel, so a low seed costs refinement, never accuracy.
    """
    ks = np.asarray(payoff.breakpoints or (0.0,), dtype=float)
    reach = float(np.max(np.abs(ks[:, None] - xs[None, :])))
    mean, var = mean_var(d)
    return reach + max(1.0, lt) * math.sqrt(var + mean * mean)


def _jump_terms(params: MarketParams, t_bar: float) -> tuple:
    """One market's part of the transform route at t_bar > 0: its jump law,
    lam t_bar, discount, integrand factor F(w) of (w, Phi~(w)) and tail
    order."""
    lam, r, d = params.lam, params.r, params.density
    mean, var = mean_var(d)
    if not var + mean * mean < math.inf:  # _osc_hint's sqrt(E[J^2])
        raise ValidationError(f"the transform route needs E[J^2] in the double range, not so for "
                              f"the {d.family.value} law at a = {d.a!r}, b = {d.b!r}")
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

    def factor(w, phi):  # F(w) from Phi~(w), spot-free: the phases are applied per spot
        # Phi~ first: for a large temporary weight, ``phi * weight`` lets
        # numpy compute weight * phi in place, and a complex product's
        # rounding depends on its operands' order
        return np.multiply(phi, weight(char_fn(d, -w))) / (2.0 * math.pi)

    return d, lt, disc, factor, _TAIL_ORDER + extra


def _atom(payoff: Payoff, xs: np.ndarray, d, lt: float, disc: float, spec: QuadSpec):
    """The split-off part of the price: the no-jump atom, and for uniform
    jumps the one-jump term too."""
    if d.family is Family.PARETO_HALF:
        return 0.0
    atom = math.exp(-lt) * disc * payoff.value(xs)
    if d.family is Family.CONSTANT:
        top = xs.max() + d.b
        if not top < _MAX_LOG_PRICE:
            raise ValidationError(f"one uniform jump reaches log-price {top:.4g}, past "
                                  f"{_MAX_LOG_PRICE:.4g} where the payoff overflows")
        atom += lt * math.exp(-lt) * disc * np.array(
            [_one_jump_average(payoff, xi, d.a, d.b, spec) for xi in xs])
    return atom


def _stack_prices(terms: list, payoff: Payoff, xs: np.ndarray, spec: QuadSpec) -> list:
    """Each market's prices at the spots xs, from one stacked real-line
    integral, or the error the first market that fails raises alone."""
    atoms, orders, hints, factors, atom_error = [], [], [], [], None
    for d, lt, disc, factor, order in terms:
        try:
            atoms.append(_atom(payoff, xs, d, lt, disc, spec))
        except AccuracyError as exc:  # no later market's outcome is needed
            atom_error = exc
            break
        orders.append(order)
        hints.append(_osc_hint(payoff, xs, d, lt))
        factors.append(factor)
    try:
        vals = integrate_real_line(payoff.transform, orders, spec, hints, spots=xs,
                                   factors=factors)
    except AccuracyError as exc:  # a market before any failed atom
        atom = atoms[exc.index]

        def failed():
            raise exc
        mapped(failed, lambda val: atom + val.real)
    if atom_error is not None:
        raise atom_error
    return [atom + val.real for atom, val in zip(atoms, vals)]


def price_fourier(params, payoff: Payoff, x, t_bar: float, spec: QuadSpec = DEFAULT_QUAD):
    """Price a European claim with payoff profile ``payoff`` at log-price x.

    ``x`` is a float (the price is a float) or a 1-D array of log-prices
    (the prices are an ndarray); all spots share one frequency grid.  The
    payoff must carry a transform.  ``params`` is one market, or a
    sequence of markets priced on the same payoff and spots, which gives
    a list of one such price per market from one stacked integral
    (``integrate_real_line``'s ``factors``): each market's prices are
    those of its own call, bit for bit, and the stack raises what the
    first market that fails would raise alone; an AccuracyError of its
    integral carries its position in the sequence as ``index``.
    """
    if payoff.transform is None:
        raise InvalidParametersError("the transform route needs a payoff with a transform")
    one = isinstance(params, MarketParams)
    markets = [params] if one else list(params)
    for m in markets:
        m.check_horizon(t_bar)
    if t_bar == 0.0:
        prices = [over_spots(payoff.value, x) for _ in markets]
    else:
        terms = [_jump_terms(m, t_bar) for m in markets]
        stack = []

        def column(j):
            def priced(xs):  # the first column prices the whole stack
                if not stack:
                    stack.extend(_stack_prices(terms, payoff, xs, spec))
                return stack[j]
            return priced
        prices = [over_spots(column(j), x) for j in range(len(markets))]
    return prices[0] if one else prices


def price_two_point_exact(params: MarketParams, payoff: Payoff, x, t_bar: float):
    """Exact price under the two-point jump law by net-jump-count conditioning.

    With jumps of +/- b the log-price after n_up - n_down net jumps is
    x + b (n_up - n_down), and the net count follows the difference of two
    independent Poisson laws.  The sum below is exact up to a Poisson tail
    of mass below ``_TAIL_MASS``; it replaces the transform route, which
    converges slowly for lattice jump laws.  ``x`` is a float or a 1-D
    array of log-prices, as for ``price_fourier``; each spot's sum is
    formed exactly as for a single-spot call.  A sum that reaches past
    ``MAX_NET_JUMPS`` jumps, or a lattice log-price past where the payoff
    overflows, is refused with ValidationError before anything is
    allocated.
    """
    d = params.density
    if d.family is not Family.DISCRETE:
        raise InvalidParametersError("net-count conditioning applies to the two-point law")
    params.check_horizon(t_bar)
    if t_bar == 0.0:
        return over_spots(payoff.value, x)
    up = params.lam * t_bar * d.a
    down = params.lam * t_bar * (1.0 - d.a)
    total = up + down
    # the net count is bounded by the total count, and Poisson(total) mass
    # beyond total + 12 sqrt(total) + 30 - log10(_TAIL_MASS) is negligible
    m_max = math.ceil(total + 12.0 * math.sqrt(total) + 30.0 - math.log10(_TAIL_MASS))
    if m_max > MAX_NET_JUMPS:
        raise ValidationError(f"the two-point net-count sum reaches {m_max} jumps at "
                              f"lam T = {total:.4g}, above the budget of {MAX_NET_JUMPS}")

    def priced(xs):
        top = xs.max() + d.b * m_max
        if not top < _MAX_LOG_PRICE:
            raise ValidationError(f"the two-point lattice reaches log-price {top:.4g}, past "
                                  f"{_MAX_LOG_PRICE:.4g} where the payoff overflows")
        m = np.arange(-m_max, m_max + 1)
        pmf = poisson_difference_pmf(m_max, up, down)
        values = payoff.value(xs[:, None] + d.b * m[None, :])
        # a row-wise sum, so a spot's price does not depend on the other spots
        return math.exp(-params.r * t_bar) * (values * pmf).sum(axis=1)
    return over_spots(priced, x)
