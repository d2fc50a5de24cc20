"""European binary and vanilla options under the two-sided exponential jump model.

Every pricer takes a ``MarketParams`` whose jump law is the Exponential
family with a = 1/rho, b = 1/gamma; one jump has density

    h(x) = gamma*rho/(gamma+rho) * (e^{-rho x} 1_{x>=0} + e^{gamma x} 1_{x<0}),

read back as (rho, gamma) by ``MarketParams.exponential_rates``, which
refuses any other market.  Conditioning on the time and size of the next
jump turns the price into an integral equation in remaining time t_bar
whose Laplace transform in t_bar is available in closed form through the
two characteristic roots beta_pm of the jump operator.  Each contract is
priced two independent ways:

* ``LAPLACE``: numerical inversion of the transform, and
* ``CLOSED``: a one-dimensional Bessel/Gaussian integral in the time domain,

which back each other in the test-suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .densities import mean_var
from .errors import BranchInconsistencyError, InvalidParametersError
from .numerics import (
    DEFAULT_QUAD,
    QuadSpec,
    bessel_i1_scaled,
    integrate_semi_infinite,
    laplace_invert,
    normal_cdf,
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
        if self.strike <= 0.0:
            raise InvalidParametersError("strike must be positive")
        if self.t_bar < 0.0:
            raise InvalidParametersError("remaining time must be non-negative")
        if self.kind is PayoffKind.PORTFOLIO and (self.width is None or self.width <= 0):
            raise InvalidParametersError("butterfly contracts need a positive width")

    @property
    def log_strike(self) -> float:
        return math.log(self.strike)

    def payoff(self, x):
        """Terminal payoff as a function of log-price x (vectorised)."""
        x = np.asarray(x, dtype=float)
        s = np.exp(x)
        K = self.strike
        if self.kind is PayoffKind.BINARY_CALL:
            out = (s >= K).astype(float)
        elif self.kind is PayoffKind.BINARY_PUT:
            out = (s < K).astype(float)
        elif self.kind is PayoffKind.VANILLA_CALL:
            out = np.maximum(s - K, 0.0)
        elif self.kind is PayoffKind.VANILLA_PUT:
            out = np.maximum(K - s, 0.0)
        else:
            out = fourier.butterfly_payoff(K, self.width).value(x)
        return out if out.shape else float(out)


class PriceMethod(enum.Enum):
    LAPLACE = "laplace"
    CLOSED = "closed"
    FOURIER = "fourier"


# ----------------------------------------------------------------------
# characteristic roots
# ----------------------------------------------------------------------

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
    prod_target = -g * p * (r + s) / (lam + r + s)
    root = np.sqrt((g - p) ** 2 - 4.0 * prod_target)
    big = -0.5 * ((g - p) + math.copysign(1.0, g - p) * root)  # beta_- if g >= p
    bp, bm = (prod_target / big, big) if g >= p else (big, prod_target / big)

    sum_resid = np.max(np.abs(bp + bm + (g - p))) if bp.shape else abs(bp + bm + (g - p))
    prod_resid = np.abs(bp * bm - prod_target)
    prod_scale = g * p + np.abs(prod_target)
    worst = float(np.max(prod_resid / prod_scale))
    if sum_resid > _VIETA_TOL * (1.0 + abs(g - p)) or worst > _VIETA_TOL:
        raise BranchInconsistencyError(
            f"root identities violated (sum {sum_resid!r}, product {worst!r})",
            bound=max(float(sum_resid), worst),
        )
    return bp, bm


# ----------------------------------------------------------------------
# Laplace-domain prices
# ----------------------------------------------------------------------

def binary_call_laplace(m: MarketParams, k: float, x: float, s):
    """Transform (in remaining time) of the cash-or-nothing call, log-strike k."""
    s = np.asarray(s, dtype=complex)
    bp, bm = beta_pm(m, s)
    lam, r = m.lam, m.r
    amp = lam / ((lam + r + s) * (r + s) * (bp - bm))
    if x < k:
        return -bm * amp * np.exp(bp * (x - k))
    return -bp * amp * np.exp(bm * (x - k)) + 1.0 / (r + s)


def vanilla_call_laplace(m: MarketParams, K: float, x: float, s):
    """Transform (in remaining time) of the vanilla call with strike K."""
    s = np.asarray(s, dtype=complex)
    k = math.log(K)
    bp, bm = beta_pm(m, s)
    lam, r = m.lam, m.r

    def wing(beta_other):
        return (lam * beta_other / (r + s)
                + (lam + r) * (1.0 - beta_other) / s) / ((lam + r + s) * (bp - bm))

    if x < k:
        return K * wing(bm) * np.exp(bp * (x - k))
    return K * wing(bp) * np.exp(bm * (x - k)) + math.exp(x) / s - K / (r + s)


# ----------------------------------------------------------------------
# closed-form (time-domain) prices
# ----------------------------------------------------------------------

def binary_call_closed(m: MarketParams, k: float, x: float, t_bar: float,
                       spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Time-domain binary call price as a single Bessel integral.

    The Bessel function is used in exponentially scaled form so the
    integrand stays bounded for arbitrarily large lam * t_bar.
    """
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    if t_bar == 0.0:
        return 1.0 if x >= k else 0.0
    c = lam * t_bar
    s2 = math.sqrt(2.0 * g * p * c)
    atom = math.exp(-(lam + r) * t_bar) if x >= k else 0.0

    def integrand(u):
        arg = (x - k) * s2 / (2.0 * u) + (g - p) * u / s2
        return 2.0 * bessel_i1_scaled(2.0 * u) \
            * np.exp(-((u - c) ** 2) / c - r * t_bar) * normal_cdf(arg)

    tail = integrate_semi_infinite(integrand, spec, bumps=[(c, math.sqrt(c / 2.0) + 1e-12)])
    return atom + tail


def vanilla_call_closed(m: MarketParams, K: float, x: float, t_bar: float,
                        spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Time-domain vanilla call price as a single Bessel integral."""
    (p, g), lam, r = m.exponential_rates(), m.lam, m.r
    k = math.log(K)
    if t_bar == 0.0:
        return max(math.exp(x) - K, 0.0)
    c = lam * t_bar
    c1 = g * p * lam * t_bar / ((g + 1.0) * (p - 1.0))
    shift1 = c1 - (lam + r) * t_bar  # zero in the risk-neutral parameterisation
    xf = math.sqrt(2.0 / (g * p * c))
    ex = math.exp(x)
    atom = (ex - K) * math.exp(-(lam + r) * t_bar) if x >= k else 0.0

    def integrand(u):
        xi = xf * u
        a1 = 0.5 * (g - p + 2.0) * xi + (x - k) / xi
        a2 = 0.5 * (g - p) * xi + (x - k) / xi
        t1 = ex * np.exp(-((u - c1) ** 2) / c1 + shift1) * normal_cdf(a1)
        t2 = K * np.exp(-((u - c) ** 2) / c - r * t_bar) * normal_cdf(a2)
        return 2.0 * bessel_i1_scaled(2.0 * u) * (t1 - t2)

    bumps = [(c1, math.sqrt(c1 / 2.0) + 1e-12), (c, math.sqrt(c / 2.0) + 1e-12)]
    return atom + integrate_semi_infinite(integrand, spec, bumps=bumps)


def no_trade_vanilla_call(K: float, x: float, t_bar: float, r: float) -> float:
    """Limit rho -> 1+ of the vanilla call: the asset never trades again."""
    ex = math.exp(x)
    disc = math.exp(-r * t_bar)
    intrinsic = (ex - K) * disc if ex >= K else 0.0
    return ex * (1.0 - disc) + intrinsic


# ----------------------------------------------------------------------
# public pricing API
# ----------------------------------------------------------------------

def binary_call_price(m: MarketParams, c: Contract, x: float,
                      method: PriceMethod = PriceMethod.CLOSED,
                      spec: QuadSpec = DEFAULT_QUAD) -> float:
    k = c.log_strike
    if method is PriceMethod.CLOSED:
        return binary_call_closed(m, k, x, c.t_bar, spec)
    if method is PriceMethod.LAPLACE:
        if c.t_bar == 0.0:
            m.exponential_rates()  # refuses other markets, as every other input does
            return 1.0 if x >= k else 0.0
        return laplace_invert(lambda s: binary_call_laplace(m, k, x, s), c.t_bar, spec)
    raise InvalidParametersError(f"unsupported method {method!r} for binary calls")


def vanilla_call_price(m: MarketParams, c: Contract, x: float,
                       method: PriceMethod = PriceMethod.CLOSED,
                       spec: QuadSpec = DEFAULT_QUAD) -> float:
    if method is PriceMethod.CLOSED:
        return vanilla_call_closed(m, c.strike, x, c.t_bar, spec)
    if method is PriceMethod.LAPLACE:
        if c.t_bar == 0.0:
            m.exponential_rates()  # refuses other markets, as every other input does
            return max(math.exp(x) - c.strike, 0.0)
        return laplace_invert(lambda s: vanilla_call_laplace(m, c.strike, x, s),
                              c.t_bar, spec)
    raise InvalidParametersError(f"unsupported method {method!r} for vanilla calls")


def put_price_from_parity(call_price: float, kind: PayoffKind, x: float,
                          K: float, r: float, t_bar: float) -> float:
    """European put value implied by put-call parity."""
    if kind in (PayoffKind.BINARY_PUT, PayoffKind.BINARY_CALL):
        return math.exp(-r * t_bar) - call_price
    if kind in (PayoffKind.VANILLA_PUT, PayoffKind.VANILLA_CALL):
        return call_price + K * math.exp(-r * t_bar) - math.exp(x)
    raise InvalidParametersError(f"no parity relation for {kind!r}")


def european_price(m: MarketParams, c: Contract, x: float,
                   method: PriceMethod = PriceMethod.CLOSED,
                   spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Price any European contract of this module, puts via parity."""
    if c.style is not OptionStyle.EUROPEAN:
        raise InvalidParametersError("european_price handles European contracts only")
    if c.kind is PayoffKind.BINARY_CALL:
        return binary_call_price(m, c, x, method, spec)
    if c.kind is PayoffKind.VANILLA_CALL:
        return vanilla_call_price(m, c, x, method, spec)
    if c.kind in (PayoffKind.BINARY_PUT, PayoffKind.VANILLA_PUT):
        call = (binary_call_price if c.kind is PayoffKind.BINARY_PUT else vanilla_call_price)
        return put_price_from_parity(call(m, c, x, method, spec), c.kind, x, c.strike,
                                     m.r, c.t_bar)
    raise InvalidParametersError(f"contract kind {c.kind!r} is not priced here")


def log_return_moments(m: MarketParams, dt: float) -> tuple[float, float]:
    """Mean and variance of the log-return over a horizon dt, for any jump law."""
    if dt < 0:
        raise InvalidParametersError("horizon must be non-negative")
    mean, var = mean_var(m.density)
    return m.lam * dt * mean, m.lam * dt * (var + mean * mean)


# Aliases of the retired DEModel container for the benchmark harness; each
# returns or accepts a MarketParams, and the package does not call them.
class DEModel:
    risk_neutral = staticmethod(lambda rho, gamma, r: MarketParams.exponential(rho, gamma, r))
    from_rho_sigma = staticmethod(MarketParams.from_rho_sigma)
    from_market = staticmethod(lambda market: market)


MarketParams.market_params = lambda self: self
