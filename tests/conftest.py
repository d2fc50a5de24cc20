import pytest

from ctrwpricer import MarketParams


@pytest.fixture
def de_model() -> MarketParams:
    """Reference two-sided exponential market: rho=2, gamma=9, r=4%."""
    return MarketParams.exponential(2.0, 9.0, 0.04)
