"""Option pricing when the underlying moves by discrete jumps at random times.

The market model is a compound Poisson process for the log-price: waiting
times between trades are exponential, jump sizes are drawn from one of the
laws in :mod:`ctrwpricer.densities`.  Pricing routes:

* closed-form time-domain integrals and Laplace-transform inversion for the
  two-sided exponential jump law (:mod:`ctrwpricer.european`,
  :mod:`ctrwpricer.american`),
* Fourier inversion for arbitrary jump laws and smooth bounded payoffs
  (:mod:`ctrwpricer.fourier`),
* exact path simulation (:mod:`ctrwpricer.montecarlo`).
"""

from .blackscholes import (
    bs_binary_call,
    bs_binary_put,
    bs_vanilla_call,
    bs_vanilla_put,
    implied_vol,
    wiener_exercise_boundary,
    wiener_perpetual_put,
)
from .densities import Family, JumpDensity, char_fn, exp_moment, fit_from_moments
from .errors import (
    AccuracyError,
    BranchInconsistencyError,
    DegenerateMarketError,
    DivergentMomentError,
    DomainError,
    InadmissibleModelError,
    InvalidParametersError,
    OutOfBandError,
    PricingError,
    TailBoundError,
    UnsupportedFamilyError,
    ValidationError,
)
from .european import (
    Contract,
    OptionStyle,
    PayoffKind,
    PriceMethod,
    european_price,
    gamma_for_sigma,
)
from .fourier import Payoff, butterfly_payoff, price_fourier, price_two_point_exact
from .montecarlo import MCConfig, MCEstimate, martingale_check
from .numerics import QuadSpec
from .riskneutral import MarketParams, risk_neutral_intensity, validate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccuracyError",
    "BranchInconsistencyError",
    "Contract",
    "DegenerateMarketError",
    "DivergentMomentError",
    "DomainError",
    "Family",
    "InadmissibleModelError",
    "InvalidParametersError",
    "JumpDensity",
    "MCConfig",
    "MCEstimate",
    "MarketParams",
    "OptionStyle",
    "OutOfBandError",
    "Payoff",
    "PayoffKind",
    "PriceMethod",
    "PricingError",
    "QuadSpec",
    "TailBoundError",
    "UnsupportedFamilyError",
    "ValidationError",
    "bs_binary_call",
    "bs_binary_put",
    "bs_vanilla_call",
    "bs_vanilla_put",
    "butterfly_payoff",
    "char_fn",
    "european_price",
    "exp_moment",
    "fit_from_moments",
    "gamma_for_sigma",
    "implied_vol",
    "martingale_check",
    "price_fourier",
    "price_two_point_exact",
    "risk_neutral_intensity",
    "validate",
    "wiener_exercise_boundary",
    "wiener_perpetual_put",
]
