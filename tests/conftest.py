"""Shared fixtures and model builders for the test suite."""

import numpy as np
import pytest

from pdmpfrag import (
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    build_characteristics,
)

# Lines collected by the acceptance tests; printed in the terminal summary so
# they are visible even with output capture on.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def power_model(regime, alpha, beta=None, a=1.0, nu=0.0):
    """Closed-form model: g(x) = x^(1-beta), phi(x) = a x^alpha, h power kernel."""
    if regime == "pure_jump":
        semiflow = SemiflowSpec(regime=Regime.PURE_JUMP)
    else:
        semiflow = SemiflowSpec(regime=Regime[regime.upper()],
                                power_beta=float(beta))
    rate = RateSpec(power=(float(a), float(alpha)))
    return build_characteristics(semiflow, rate, PowerLawKernel(float(nu)))


def unit_decay_model():
    """Unit-speed decay g = 1, phi = 1: the orbit reaches 0 in finite time."""
    def one(x):
        return np.ones_like(np.asarray(x, float))
    return build_characteristics(
        SemiflowSpec(regime=Regime.DECAY, g=one), RateSpec(phi=one),
        PowerLawKernel(0.0), domain=(1e-9, 1e3))


@pytest.fixture(scope="session")
def pure_frag():
    """Pure fragmentation, phi(x) = 1/x, h = 2 (nu=0): the gamma-law model."""
    return power_model("pure_jump", alpha=-1.0)


@pytest.fixture(scope="session")
def bounded_pure_jump():
    """Pure jump with phi identically 1 (honest)."""
    return power_model("pure_jump", alpha=0.0)


def aligned_grid():
    """Log grid whose edges hit 1 and 2 exactly (powers of 2^{1/16})."""
    from pdmpfrag import LogGrid
    return LogGrid(2.0 ** -20, 2.0 ** 7, 432)
