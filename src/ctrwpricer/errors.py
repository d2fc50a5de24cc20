"""Exception hierarchy for the pricing engine.

Validation failures (bad parameters, inadmissible models, out-of-band
inputs) and accuracy failures (a numerical routine could not certify its
tolerance) are kept on separate branches so callers, in particular the
CLI, can map them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "PricingError",
    "ValidationError",
    "InvalidParametersError",
    "UnsupportedFamilyError",
    "DomainError",
    "DivergentMomentError",
    "InadmissibleModelError",
    "DegenerateMarketError",
    "OutOfBandError",
    "AccuracyError",
    "TailBoundError",
    "BranchInconsistencyError",
]


class PricingError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PricingError):
    """Input rejected before any numerics ran (CLI exit code 2)."""


class InvalidParametersError(ValidationError):
    """Parameter values violate a model or payoff constraint."""


class UnsupportedFamilyError(ValidationError):
    """Operation is not defined for the requested jump-size family."""


class DomainError(ValidationError):
    """Evaluation point lies outside the function's domain (e.g. a pole)."""


class DivergentMomentError(ValidationError):
    """A required exponential moment of the jump density diverges."""


class InadmissibleModelError(ValidationError):
    """No positive risk-neutral jump intensity exists for these inputs."""


class DegenerateMarketError(ValidationError):
    """Zero interest rate: the risk-neutral intensity is undefined."""


class OutOfBandError(ValidationError):
    """Target price lies outside the attainable arbitrage band."""


class AccuracyError(PricingError):
    """A numerical routine could not reach its requested tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether the partial result is still usable.  ``index`` is, in a
    stack of integrals computed together, the position of the one the
    error is about.
    """

    def __init__(self, message, best=None, bound=None, index=None):
        super().__init__(message)
        self.best = best
        self.bound = bound
        self.index = index


class TailBoundError(AccuracyError):
    """Sampled integrand decay contradicts the declared tail order."""


class BranchInconsistencyError(AccuracyError):
    """Characteristic-root identities failed along the inversion contour."""
