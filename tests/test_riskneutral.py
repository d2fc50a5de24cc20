"""Risk-neutral intensity derivation and admissibility diagnostics."""

import math
from fractions import Fraction

import pytest

from ctrwpricer import (
    Contract,
    DegenerateMarketError,
    Family,
    InadmissibleModelError,
    InvalidParametersError,
    JumpDensity,
    MarketParams,
    PayoffKind,
    european_price,
    risk_neutral_intensity,
    validate,
)
from ctrwpricer.american import (
    binary_put_laplace,
    binary_put_price,
    perpetual_binary_put,
    perpetual_vanilla_put,
    vanilla_exercise_trigger,
)
from ctrwpricer.densities import exp_moment
from ctrwpricer.european import PriceMethod, beta_pm

EXP_29 = JumpDensity(Family.EXPONENTIAL, 0.5, 1.0 / 9.0)


class TestExpMoment:
    def test_reference_exponential(self):
        assert abs(exp_moment(EXP_29) - 1.8) <= 1e-14

    def test_pareto_closed_form(self):
        a, b = 0.6, 0.4
        d = JumpDensity(Family.PARETO_HALF, a, b)
        expected = 1.0 - 2.0 * math.sqrt(math.pi) * (
            a * math.sqrt(1.0 - b) + (1.0 - a) * math.sqrt(1.0 + b) - 1.0
        )
        assert abs(exp_moment(d) - expected) <= 1e-14


class TestIntensity:
    def test_reference_value(self):
        # r (rho-1)(gamma+1)/(gamma-rho+1) = 0.04 * 1 * 10 / 8
        assert abs(risk_neutral_intensity(0.04, EXP_29) - 0.05) <= 1e-15

    def test_definition_pivot(self):
        # a density with unit-exp-moment excess r gives lam exactly 1
        r = 0.04
        b = math.sqrt(2.0 * math.log(1.0 + r))
        d = JumpDensity(Family.GAUSSIAN, 0.0, b)
        assert abs(risk_neutral_intensity(r, d) - 1.0) <= 1e-12

    def test_discrete_round_fit(self):
        d = JumpDensity(Family.DISCRETE, 0.54975185951049946, 0.01004987562112089)
        h = d.a * math.exp(d.b) + (1.0 - d.a) * math.exp(-d.b)
        assert abs(risk_neutral_intensity(0.04, d) - 0.04 / (h - 1.0)) <= 1e-12

    def test_zero_rate_rejected(self):
        with pytest.raises(DegenerateMarketError):
            risk_neutral_intensity(0.0, EXP_29)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParametersError):
            risk_neutral_intensity(-0.01, EXP_29)

    def test_submartingale_density_rejected(self):
        # strictly negative drift with tiny variance: E[e^X] < 1
        d = JumpDensity(Family.GAUSSIAN, -1.0, 0.01)
        with pytest.raises(InadmissibleModelError):
            risk_neutral_intensity(0.04, d)

    def test_decreasing_in_exp_moment(self):
        small = JumpDensity(Family.GAUSSIAN, 0.0, 0.05)
        large = JumpDensity(Family.GAUSSIAN, 0.0, 0.2)
        assert risk_neutral_intensity(0.04, small) > risk_neutral_intensity(0.04, large)

    def test_divergence_toward_no_trade(self):
        # exp_moment -> 1+ sends the intensity to infinity
        lam = risk_neutral_intensity(0.04, JumpDensity(Family.GAUSSIAN, 0.0, 1e-4))
        assert lam > 1e6


class TestMarketParams:
    def test_risk_neutral_constructor(self):
        mk = MarketParams.risk_neutral(0.04, EXP_29)
        assert abs(mk.lam - 0.05) <= 1e-15
        assert mk.is_risk_neutral

    def test_override_flagged(self):
        mk = MarketParams(r=0.04, density=EXP_29, lam=0.1)
        assert not mk.is_risk_neutral

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            MarketParams(r=0.04, density=EXP_29, lam=0.0)
        with pytest.raises(InvalidParametersError):
            MarketParams(r=-0.04, density=EXP_29, lam=0.05)


class TestValidate:
    def test_reference_market_passes(self):
        diag = validate(MarketParams.risk_neutral(0.04, EXP_29))
        assert diag.passed
        assert all(ok for _, ok, _ in diag)

    def test_gaussian_market_passes(self):
        d = JumpDensity(Family.GAUSSIAN, 0.0, 0.01)
        mk = MarketParams.risk_neutral(0.04, d)
        assert abs(mk.lam - 0.04 / math.expm1(5e-5)) <= 1e-9 * mk.lam
        assert validate(mk).passed

    def test_exponential_band_violation_reported(self):
        # 1/a - 1 < 0 breaks the admissibility band for the exponential family
        d = JumpDensity(Family.EXPONENTIAL, 2.0, 1.0)
        diag = validate(MarketParams(r=0.04, density=d, lam=0.05))
        assert not diag.passed
        failing = [name for name, ok, _ in diag if not ok]
        assert failing

    def test_intensity_mismatch_reported(self):
        diag = validate(MarketParams(r=0.04, density=EXP_29, lam=0.25))
        assert not diag.passed


class TestExponentialMarket:
    """The two-sided exponential market, built from (rho, gamma) or sigma."""

    @pytest.mark.parametrize("rho", [1.01, 1.1, 1.5, 2.0, 5.0, 20.0, 30.0, 200.0,
                                     500.0, 1000.0, 2000.0])
    def test_intensity_exact_across_slices(self, rho):
        # E[e^J] - 1 is O(1/rho^2) here (3.1e-8 at rho = 2000, sigma = 0.8),
        # so forming it by subtracting 1 from E[e^J] loses eight digits
        for sigma in (0.05, 0.1, 0.2, 0.4, 0.8):
            mk = MarketParams.from_rho_sigma(rho, 0.04, sigma)
            a, b = Fraction(mk.density.a), Fraction(mk.density.b)
            exact = Fraction(0.04) / (1 / ((1 - a) * (1 + b)) - 1)
            assert abs(Fraction(mk.lam) - exact) <= Fraction(1, 10**12) * exact
            assert mk.is_risk_neutral
            assert validate(mk).passed

    def test_rates_read_back(self):
        mk = MarketParams.exponential(2.0, 9.0, 0.04)
        assert mk.density == EXP_29
        assert mk.exponential_rates() == (2.0, 9.0)
        assert MarketParams.exponential(2.0, 9.0, 0.04, lam=0.2).lam == 0.2


NOT_EXPONENTIAL = {
    "gaussian": MarketParams.risk_neutral(0.04, JumpDensity(Family.GAUSSIAN, 0.0, 0.01)),
    "rho-below-one": MarketParams(0.04, JumpDensity.exponential(2.0, 1.0), 0.05),
}
EXPONENTIAL_PRICERS = {
    "european_price": lambda m: european_price(
        m, Contract(PayoffKind.VANILLA_CALL, 1.0, 0.25), 0.05),
    "binary_put_price": lambda m: binary_put_price(m, 0.0, 0.05, 0.25),
    # the shortcuts: exercised region and expiry
    "binary_put_price-exercised": lambda m: binary_put_price(m, 0.0, -0.05, 0.25),
    "binary_put_price-expiry": lambda m: binary_put_price(m, 0.0, 0.05, 0.0),
    "binary_put_laplace-exercised": lambda m: binary_put_laplace(m, 0.0, -0.05, 1.0),
    "binary_call-laplace-expiry": lambda m: european_price(
        m, Contract(PayoffKind.BINARY_CALL, 1.0, 0.0), 0.05, PriceMethod.LAPLACE),
    "vanilla_call-laplace-expiry": lambda m: european_price(
        m, Contract(PayoffKind.VANILLA_CALL, 1.0, 0.0), 0.05, PriceMethod.LAPLACE),
    "perpetual_binary_put": lambda m: perpetual_binary_put(m, 0.0, 0.05),
    "perpetual_vanilla_put": lambda m: perpetual_vanilla_put(m, 1.0, 0.05),
    "vanilla_exercise_trigger": lambda m: vanilla_exercise_trigger(m, 1.0),
    "beta_pm": lambda m: beta_pm(m, 1.0),
}


@pytest.mark.parametrize("market", sorted(NOT_EXPONENTIAL))
@pytest.mark.parametrize("pricer", sorted(EXPONENTIAL_PRICERS))
def test_exponential_pricers_refuse_other_markets(pricer, market):
    with pytest.raises(InvalidParametersError):
        EXPONENTIAL_PRICERS[pricer](NOT_EXPONENTIAL[market])
