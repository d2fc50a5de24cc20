"""European binary and vanilla options under the two-sided exponential jump model.

Every pricer takes a ``MarketParams`` whose jump law is the Exponential
family with a = 1/rho, b = 1/gamma; one jump has density

    h(x) = gamma*rho/(gamma+rho) * (e^{-rho x} 1_{x>=0} + e^{gamma x} 1_{x<0}),

read back as (rho, gamma) by ``MarketParams.exponential_rates``, which
refuses any other market.  Each call is a sum of legs L_alpha =
e^{-r t_bar} E[e^{alpha X} 1{X >= k}], alpha in {0, 1}: the binary call is
L_0, the vanilla call L_1 - K L_0, and each put its call's complement.  The
Esscher tilt e^{alpha J} (Gerber & Shiu 1994) makes L_alpha e^{alpha x} times
a binary call at the rates (rho - alpha, gamma + alpha), so every price
holds at any intensity.  Each leg solves a renewal equation in remaining
time whose Laplace transform is closed-form in the two roots beta_pm of the
jump operator, and each contract is priced two independent ways:

* ``LAPLACE``: numerical inversion of the transform, and
* ``CLOSED``: one Bessel/Gaussian integral in the time domain, summed over legs;

the two back each other in the test-suite.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fourier
from .densities import mean_var
from .errors import BranchInconsistencyError, InvalidParametersError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    as_rows,
    bessel_i1_scaled,
    integrate_semi_infinite,
    laplace_invert,
    mapped,
    normal_cdf,
    over_spots,
)
from .riskneutral import MarketParams, gamma_for_sigma

__all__ = [
    "PayoffKind",
    "OptionStyle",
    "Contract",
    "PriceMethod",
    "gamma_for_sigma",
    "beta_pm",
    "binary_call_laplace",
    "vanilla_call_laplace",
    "binary_call_price",
    "vanilla_call_price",
    "put_price_from_parity",
    "no_trade_vanilla_call",
    "log_return_moments",
    "european_price",
]

_VIETA_TOL = 1e-12
_LOG_MAX = math.log(sys.float_info.max)


class PayoffKind(enum.Enum):
    BINARY_CALL = "binary-call"
    BINARY_PUT = "binary-put"
    VANILLA_CALL = "vanilla-call"
    VANILLA_PUT = "vanilla-put"
    PORTFOLIO = "butterfly"


class OptionStyle(enum.Enum):
    EUROPEAN = "european"
    AMERICAN = "american"
    PERPETUAL = "perpetual"


@dataclass(frozen=True)
class Contract:
    kind: PayoffKind
    strike: float
    t_bar: float
    style: OptionStyle = OptionStyle.EUROPEAN
    width: float | None = None  # butterfly wing width L

    def __post_init__(self):
        # the negated ranges refuse NaN as well as infinities
        if not 0.0 < self.strike < math.inf:
            raise InvalidParametersError("strike must be positive and finite")
        if not 0.0 <= self.t_bar < math.inf:
            raise InvalidParametersError("remaining time must be non-negative and finite")
        if self.width is not None and not math.isfinite(self.width):
            raise InvalidParametersError("butterfly width must be finite")
        if self.kind is PayoffKind.PORTFOLIO and (self.width is None or self.width <= 0):
            raise InvalidParametersError("butterfly contracts need a positive width")

    @property
    def log_strike(self) -> float:
        return math.log(self.strike)

    @property
    def payoff(self) -> fourier.Payoff:
        """The terminal payoff record, from ``_PROFILES`` or ``butterfly_payoff``."""
        if self.kind is PayoffKind.PORTFOLIO:
            return fourier.butterfly_payoff(self.strike, self.width)
        profile, K, k = _PROFILES[self.kind], self.strike, self.log_strike
        return fourier.Payoff(value=lambda x: profile(np.asarray(x, dtype=float), K, k),
                              breakpoints=(k,))


# Profiles f(x, K, k = ln K) on log-price x, none integrable.  Binaries test
# x >= k as every pricer does; e^x >= K fails at x = k when e^k < K.
_PROFILES = {
    PayoffKind.BINARY_CALL: lambda x, K, k: (x >= k).astype(float),
    PayoffKind.BINARY_PUT: lambda x, K, k: (x < k).astype(float),
    PayoffKind.VANILLA_CALL: lambda x, K, k: np.maximum(np.exp(x) - K, 0.0),
    PayoffKind.VANILLA_PUT: lambda x, K, k: np.maximum(K - np.exp(x), 0.0),
}


class PriceMethod(enum.Enum):
    LAPLACE = "laplace"
    CLOSED = "closed"
    FOURIER = "fourier"


# ----------------------------------------------------------------------
# characteristic roots, legs and the public pricing API
# ----------------------------------------------------------------------

def check_formed(m: MarketParams, what: str, value: float) -> None:
    """Refuse the market m where ``what``, a product of its rates that a route
    forms as a float, passes the double range (a float product overflows to
    inf without a warning)."""
    if not value < math.inf:
        raise InvalidParametersError(f"{what} passes the double range at rho = "
                                     f"{1.0 / m.density.a!r}, gamma = {1.0 / m.density.b!r}, "
                                     f"lam = {m.lam!r}")


def beta_pm(m: MarketParams, s):
    """Roots beta_+(s) >= 0 >= beta_-(s) of the transformed jump operator.

    With disc = (gamma - rho)^2 + 4 gamma rho (r+s)/(lam+r+s), which does
    not cancel for lam >> |r+s|, the root -(gamma - rho)/2 +/- sqrt(disc)/2
    whose terms add is taken directly and the other from the product (the
    stable quadratic formula; principal square root).  Vieta's identities

        beta_+ + beta_- = -(gamma - rho)
        beta_+ * beta_- = -gamma*rho*(r+s)/(lam+r+s)

    are asserted at every node as a branch-consistency guard.
    """
    s = np.asarray(s, dtype=complex)
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    # (gamma + rho)^2 bounds the discriminant, and gamma rho (r + |s|) its product term
    check_formed(m, "(gamma + rho)^2", (g + p) * (g + p))
    check_formed(m, "gamma rho (r + |s|)", g * p * (r + float(np.abs(s).max(initial=0.0))))
    prod_target = -g * p * (r + s) / (lam + r + s)
    root = np.sqrt((g - p) ** 2 - 4.0 * prod_target)
    big = -0.5 * ((g - p) + math.copysign(1.0, g - p) * root)  # beta_- if g >= p
    bp, bm = (prod_target / big, big) if g >= p else (big, prod_target / big)

    sum_resid = np.abs(bp + bm + (g - p)).max()
    prod_resid = np.abs(bp * bm - prod_target)
    prod_scale = g * p + np.abs(prod_target)
    worst = float((prod_resid / prod_scale).max())
    if sum_resid > _VIETA_TOL * (1.0 + abs(g - p)) or worst > _VIETA_TOL:
        raise BranchInconsistencyError(
            f"root identities violated (sum {sum_resid!r}, product {worst!r})",
            bound=max(float(sum_resid), worst),
        )
    return bp, bm


# Each call pays the sum of w e^{alpha X} 1{X >= k} over its legs (alpha, w), and
# its put sign * (forward payoff - call payoff), the forward payoff being that sum
# without the indicator: 1{X < k} = 1 - 1{X >= k}, (K - e^X)^+ = (e^X - K)^+ - (e^X - K).
_LEGS = {PayoffKind.BINARY_CALL: lambda K: ((0, 1.0),),
         PayoffKind.VANILLA_CALL: lambda K: ((1, 1.0), (0, -K))}
_PARITY = {PayoffKind.BINARY_CALL: (PayoffKind.BINARY_CALL, 1.0),
           PayoffKind.BINARY_PUT: (PayoffKind.BINARY_CALL, 1.0),
           PayoffKind.VANILLA_CALL: (PayoffKind.VANILLA_CALL, -1.0),
           PayoffKind.VANILLA_PUT: (PayoffKind.VANILLA_CALL, -1.0)}


def _tilted(m: MarketParams, legs) -> list:
    """Each leg (alpha, w) with its tilt's intensity lam (1 + E_alpha), drift lam E_alpha - r."""
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    return [(alpha, w, lam * (g * p / den), lam * (alpha * (g - p + alpha) / den) - r)
            for alpha, w in legs for den in [(g + alpha) * (p - alpha)]]


def _check_forwards(m: MarketParams, legs, xs: np.ndarray, t_bar: float) -> None:
    """Refuse spots xs at which a leg's forward e^{alpha x + (lam E_alpha - r) t_bar},
    which its price and the put's parity form, passes the double range."""
    x = float(xs.max())
    for alpha, _, _, drift in _tilted(m, legs):
        top = alpha * x + drift * t_bar
        if not top < _LOG_MAX:
            raise InvalidParametersError(f"a leg's log-forward {top:.6g} passes the double range's "
                                         f"{_LOG_MAX:.6g} (log-price {x!r}, T = {t_bar!r})")


def _legs_laplace(m: MarketParams, k: float, x, s, legs):
    """Transform (in remaining time) of the sum of w L_alpha over the legs.

    With D = (lam + r + s)(beta_+ - beta_-), leg alpha's transform times
    s - (lam E_alpha - r) is e^{alpha k} lam (1 + E_alpha)(alpha - beta_-) e^{beta_+(x-k)}/D
    for x < k, else e^{alpha x} + e^{alpha k} lam (1 + E_alpha)(alpha - beta_+) e^{beta_-(x-k)}/D.
    x is a log-spot, a 1-D array of them or their rows (``as_rows``); an
    array gives one row per spot, each on its own branch.
    """
    s = np.asarray(s, dtype=complex)
    bp, bm = beta_pm(m, s)
    xr = as_rows(x)
    below = xr < k
    near, far = np.where(below, bp, bm), np.where(below, bm, bp)
    root = np.exp(near * (xr - k)) / ((m.lam + m.r + s) * (bp - bm))
    terms = [(w * intensity * math.exp(alpha * k) * (alpha - far) * root
              + w * np.exp(alpha * xr) * (xr >= k)) / (s - drift)
             for alpha, w, intensity, drift in _tilted(m, legs)]
    return sum(terms[1:], terms[0]).reshape(np.shape(x)[:1] + s.shape)


def _legs_closed(m: MarketParams, k: float, x, t_bar: float, legs, spec: QuadSpec):
    """Time-domain price of the sum of w L_alpha as one Bessel integral per
    log-spot of the rows x (``as_rows``), in their shape.

    The tilt keeps (gamma + alpha)(rho - alpha) lam (1 + E_alpha) = gamma rho lam, so the legs
    share one Bessel factor, exponentially scaled to stay bounded for any lam * t_bar.  A leg's
    kernel carries the sign of w and adds log |w e^{alpha x}| to its log-discount.  The bumps,
    and so the panels, depend on the market and t_bar only, so all spots share one batched
    quadrature, which hands the integrand each spot's level and log-discounts.
    """
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    forward = sum(w * np.exp(alpha * x) for alpha, w in legs)  # the legs without 1{x >= k}
    intrinsic = forward * (x >= k)
    if not m.jumps_before(t_bar):  # expiry included
        return np.maximum(intrinsic, 0.0) * math.exp(-(lam + r) * t_bar)
    check_formed(m, "2 gamma rho lam T", 2.0 * g * p * lam * t_bar)  # gamma rho too, left to right
    s2 = math.sqrt(2.0 * g * p * lam * t_bar)
    tilted = _tilted(m, legs)
    kernels = [(w > 0.0, intensity * t_bar, (g - p + 2.0 * alpha) / s2)
               for alpha, w, intensity, _ in tilted]
    shifts = [drift * t_bar + alpha * x + math.log(abs(w)) for alpha, w, _, drift in tilted]

    def integrand(u, level, *shifts):
        two_u = 2.0 * u
        lev = level / two_u
        total = 0.0
        for (positive, centre, slope), shift in zip(kernels, shifts):
            term = np.exp(shift - (u - centre) ** 2 / centre) * normal_cdf(lev + slope * u)
            total = total + term if positive else total - term
        return 2.0 * bessel_i1_scaled(two_u) * total

    bumps = [(centre, math.sqrt(centre / 2.0) + 1e-12) for _, centre, _ in kernels]
    stays = intrinsic * math.exp(-(lam + r) * t_bar)  # no jump before expiry
    return mapped(lambda: integrate_semi_infinite(integrand, spec, bumps=bumps,
                                                  params=((x - k) * s2, *shifts)),
                  lambda integral: stays + integral)


def binary_call_laplace(m: MarketParams, k: float, x, s):
    """Transform (in remaining time) of the cash-or-nothing call, log-strike k."""
    return _legs_laplace(m, k, x, s, _LEGS[PayoffKind.BINARY_CALL](math.exp(k)))


def vanilla_call_laplace(m: MarketParams, K: float, x, s):
    """Transform (in remaining time) of the vanilla call with strike K."""
    return _legs_laplace(m, math.log(K), x, s, _LEGS[PayoffKind.VANILLA_CALL](K))


def binary_call_closed(m: MarketParams, k: float, x, t_bar: float,
                       spec: QuadSpec = DEFAULT_QUAD):
    m.check_horizon(t_bar)
    legs = _LEGS[PayoffKind.BINARY_CALL](math.exp(k))
    return over_spots(lambda xs: _legs_closed(m, k, as_rows(xs), t_bar, legs, spec), x)


def vanilla_call_closed(m: MarketParams, K: float, x, t_bar: float,
                        spec: QuadSpec = DEFAULT_QUAD):
    m.check_horizon(t_bar)
    legs = _LEGS[PayoffKind.VANILLA_CALL](K)

    def priced(xs):
        _check_forwards(m, legs, xs, t_bar)
        return _legs_closed(m, math.log(K), as_rows(xs), t_bar, legs, spec)
    return over_spots(priced, x)


def binary_call_price(m: MarketParams, c: Contract, x: float,
                      method: PriceMethod = PriceMethod.CLOSED, spec: QuadSpec = DEFAULT_QUAD):
    return european_price(m, Contract(PayoffKind.BINARY_CALL, c.strike, c.t_bar), x, method, spec)


def vanilla_call_price(m: MarketParams, c: Contract, x: float,
                       method: PriceMethod = PriceMethod.CLOSED, spec: QuadSpec = DEFAULT_QUAD):
    return european_price(m, Contract(PayoffKind.VANILLA_CALL, c.strike, c.t_bar), x, method, spec)


def put_price_from_parity(m: MarketParams, call_price, kind: PayoffKind,
                          x, K: float, t_bar: float):
    """European put value implied by put-call parity, at any intensity: leg
    alpha's forward is e^{alpha x + (lam E_alpha - r) t_bar}.  x and
    call_price are a float each or 1-D arrays of one entry per spot."""
    if kind not in _PARITY:
        raise InvalidParametersError(f"no parity relation for {kind!r}")
    call, sign = _PARITY[kind]
    forward = sum(w * math.exp(drift * t_bar) * np.exp(alpha * x)
                  for alpha, w, _, drift in _tilted(m, _LEGS[call](K)))
    return sign * (forward - call_price)


def european_price(m: MarketParams, c: Contract, x,
                   method: PriceMethod = PriceMethod.CLOSED, spec: QuadSpec = DEFAULT_QUAD):
    """Price any European contract of this module, puts via parity.

    x is a log-spot, priced as a float, or a 1-D array of them, priced on
    either route in one go: one batched quadrature (closed) or one
    inversion (Laplace), each spot judged by its own tolerance.  An
    AccuracyError carries one best value and bound per spot, shaped like x.
    """
    call = _PARITY.get(c.kind, (None,))[0]
    if c.style is not OptionStyle.EUROPEAN or call is None:
        raise InvalidParametersError(f"european_price prices European calls and puts, not {c}")
    k, t_bar, legs = c.log_strike, c.t_bar, _LEGS[call](c.strike)
    m.check_horizon(t_bar)
    if method is PriceMethod.LAPLACE and m.jumps_before(t_bar):
        def price(x):  # one value per row of x, in its shape
            return mapped(lambda: laplace_invert(lambda s: _legs_laplace(m, k, x, s, legs),
                                                 t_bar, spec), lambda v: v.reshape(np.shape(x)))
    elif method in (PriceMethod.CLOSED, PriceMethod.LAPLACE):  # Laplace with no jump too
        def price(x):
            return _legs_closed(m, k, x, t_bar, legs, spec)
    else:
        raise InvalidParametersError(f"unsupported method {method!r} for European contracts")

    def priced(xs):
        _check_forwards(m, legs, xs, t_bar)
        x = as_rows(xs)
        if call is c.kind:
            return price(x)
        # the put and its estimate; parity moves the estimate by the call's error
        return mapped(lambda: price(x), lambda call_price: put_price_from_parity(
            m, call_price, c.kind, x, c.strike, t_bar))
    return over_spots(priced, x)


def no_trade_vanilla_call(K: float, x: float, t_bar: float, r: float) -> float:
    """Limit rho -> 1+ of the vanilla call: the asset never trades again."""
    ex = math.exp(x)
    disc = math.exp(-r * t_bar)
    intrinsic = (ex - K) * disc if ex >= K else 0.0
    return ex * (1.0 - disc) + intrinsic


def log_return_moments(m: MarketParams, dt: float) -> tuple[float, float]:
    """Mean and variance of the log-return over a horizon dt, for any jump law."""
    m.check_horizon(dt)
    mean, var = mean_var(m.density)
    return m.lam * dt * mean, m.lam * dt * (var + mean * mean)


# Aliases of the retired DEModel container for the benchmark harness; each
# returns or accepts a MarketParams, and the package does not call them.
class DEModel:
    risk_neutral = staticmethod(lambda rho, gamma, r: MarketParams.exponential(rho, gamma, r))
    from_rho_sigma = staticmethod(MarketParams.from_rho_sigma)
    from_market = staticmethod(lambda market: market)


MarketParams.market_params = lambda self: self
