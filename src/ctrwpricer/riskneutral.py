"""The market container and risk-neutral calibration of the jump intensity.

``MarketParams(r, density, lam)`` is the one market every pricer takes.
Under the pure-jump model the discounted asset price is a martingale iff
the Poisson intensity satisfies

    lam = r / (E[e^J] - 1),

which requires r > 0 and 1 < E[e^J] < infinity.  A zero rate leaves the
intensity undefined (any lam makes the drift vanish only if E[e^J] = 1,
i.e. no trade premium at all) and is rejected outright.  The two-sided
exponential law's E[e^J] - 1, O(1/rho^2) as rho -> infinity, is formed
without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .densities import Family, JumpDensity, exp_moment
from .errors import (
    DegenerateMarketError,
    DivergentMomentError,
    InadmissibleModelError,
    InvalidParametersError,
)

__all__ = ["MarketParams", "risk_neutral_intensity", "validate", "Diagnostics",
           "gamma_for_sigma"]

_RN_REL_TOL = 1e-9
# from (r + lam) T = 2^52 on, one rounding of r or lam moves an exponent such
# as the forward's (lam E[e^J] - lam - r) T by order one
_MAX_RATE_TIME = 2.0**52


def gamma_for_sigma(rho: float, r: float, sigma: float) -> float:
    """Down-tail rate that matches a diffusion of volatility sigma.

    Keeps gamma - rho + 1 = 2 r / sigma^2 so that the frequent-small-jump
    limit rho -> infinity reproduces Black-Scholes with this sigma.
    """
    if sigma <= 0 or r <= 0:
        raise InvalidParametersError("sigma and r must be positive")
    var = sigma * sigma
    gamma = rho - 1.0 + 2.0 * r / var if var > 0.0 else math.nan  # var underflows to 0
    if not 0.0 < gamma < math.inf:  # a NaN fails here too
        raise InvalidParametersError(
            f"rho - 1 + 2 r / sigma^2 is not a positive finite down-tail rate gamma "
            f"(rho={rho!r}, r={r!r}, sigma={sigma!r})")
    return gamma


def _check_rates(rho: float, gamma: float) -> None:
    if not (0.0 < rho - 1.0 < gamma):
        raise InvalidParametersError(f"0 < rho - 1 < gamma violated (rho={rho!r}, gamma={gamma!r})")


def _exp_moment_excess(density: JumpDensity) -> tuple[float, float]:
    """E[e^J] - 1 as (numerator, positive denominator); raises
    DivergentMomentError when E[e^J] is infinite."""
    a, b = density.a, density.b
    if density.family is Family.EXPONENTIAL and a < 1.0:
        # 1/((1 - a)(1 + b)) - 1 over a common denominator
        return a - b + a * b, (1.0 - a) * (1.0 + b)
    return exp_moment(density) - 1.0, 1.0


def _check_rate(r: float) -> None:
    if not 0.0 <= r < math.inf:  # a NaN rate fails here too
        raise InvalidParametersError(f"interest rate must be non-negative and finite, got {r!r}")


def risk_neutral_intensity(r: float, density: JumpDensity) -> float:
    """Martingale-consistent jump intensity for rate r and jump law density."""
    _check_rate(r)
    if r == 0.0:
        raise DegenerateMarketError(
            "r = 0: no finite risk-neutral intensity exists; price directly "
            "with an exogenous intensity instead"
        )
    num, den = _exp_moment_excess(density)
    if num <= 0.0:
        raise InadmissibleModelError(
            f"E[e^J] = {1.0 + num / den!r} <= 1: discounted drift cannot be flattened "
            "by any positive intensity"
        )
    return r * den / num


@dataclass(frozen=True)
class MarketParams:
    """Rate, jump law and intensity bundle used by every pricing routine."""

    r: float
    density: JumpDensity
    lam: float

    def __post_init__(self):
        _check_rate(self.r)
        if not 0.0 < self.lam < math.inf:
            raise InvalidParametersError(
                f"jump intensity must be positive and finite, got {self.lam!r}")

    @classmethod
    def risk_neutral(cls, r: float, density: JumpDensity) -> "MarketParams":
        return cls(r=r, density=density, lam=risk_neutral_intensity(r, density))

    @classmethod
    def exponential(cls, rho: float, gamma: float, r: float,
                    lam: float | None = None) -> "MarketParams":
        """Two-sided exponential market; lam defaults to the martingale intensity."""
        _check_rates(rho, gamma)
        density = JumpDensity.exponential(1.0 / rho, 1.0 / gamma)
        if lam is None and r <= 0.0:
            raise InvalidParametersError("risk-neutral calibration needs r > 0")
        return cls(r, density, risk_neutral_intensity(r, density) if lam is None else lam)

    @classmethod
    def from_rho_sigma(cls, rho: float, r: float, sigma: float) -> "MarketParams":
        """Risk-neutral exponential market on the diffusion-limit slice of sigma."""
        return cls.exponential(rho, gamma_for_sigma(rho, r, sigma), r)

    def exponential_rates(self) -> tuple[float, float]:
        """(rho, gamma) = (1/a, 1/b) of an admissible two-sided exponential market."""
        d = self.density
        if d.family is not Family.EXPONENTIAL:
            raise InvalidParametersError(
                f"requires the two-sided exponential family, not {d.family.value}")
        rho, gamma = 1.0 / d.a, 1.0 / d.b
        _check_rates(rho, gamma)
        return rho, gamma

    def check_horizon(self, t_bar: float) -> None:
        """The one horizon rule of every pricer: refuse a negative, NaN or infinite
        t_bar, or one at which (r + lam) t_bar reaches ``_MAX_RATE_TIME``."""
        if not (t_bar >= 0.0 and (self.r + self.lam) * t_bar < _MAX_RATE_TIME):
            raise InvalidParametersError("remaining time must be non-negative and finite, "
                                         f"with (r + lam) T below 2^52, got T = {t_bar!r}")

    @property
    def is_risk_neutral(self) -> bool:
        try:
            target = risk_neutral_intensity(self.r, self.density)
        except (DegenerateMarketError, DivergentMomentError, InadmissibleModelError):
            return False
        return abs(self.lam - target) <= _RN_REL_TOL * target


@dataclass(frozen=True)
class Diagnostics:
    checks: tuple = field(default_factory=tuple)  # (name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __iter__(self):
        return iter(self.checks)


def validate(params: MarketParams) -> Diagnostics:
    """Run the admissibility checks and report them without raising."""
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    add("rate_positive", params.r > 0.0, f"r = {params.r!r}")
    try:
        num, den = _exp_moment_excess(params.density)
        add("exp_moment_finite", True, f"E[e^J] = {1.0 + num / den!r}")
        add("exp_moment_above_one", num > 0.0, f"E[e^J] - 1 = {num / den!r}")
        if params.r > 0.0 and num > 0.0:
            add("intensity_risk_neutral", params.is_risk_neutral,
                f"lam = {params.lam!r}, martingale value = {params.r * den / num!r}")
    except Exception as exc:  # noqa: BLE001 - diagnostics must not raise
        add("exp_moment_finite", False, str(exc))
    add("intensity_positive", params.lam > 0.0, f"lam = {params.lam!r}")
    return Diagnostics(tuple(checks))
