"""Shared fixtures for the test suite."""

import pytest

from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.representations import Route


def pytest_make_parametrize_id(config, val, argname):
    """Name a route parameter by its public name, ``catalan_<value>``,
    rather than pytest's positional ``route0``, ``route1``."""
    if isinstance(val, Route):
        return f"catalan_{val.value}"
    return None


@pytest.fixture()
def cfg() -> QuadConfig:
    """Default quadrature configuration used throughout the suite."""
    return QuadConfig()
