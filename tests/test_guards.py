"""Argument checks that no other test reaches: each raises its own type."""

import math

import numpy as np
import pytest

from pdmpfrag import (
    DomainError,
    GridDensity,
    LogGrid,
    OutOfRegime,
    RateSpec,
    Regime,
    SemiflowSpec,
    TabulatedIntegralMap,
    TauOracle,
    build_characteristics,
    embedded_kernel,
    resolvent_series,
    run_chains,
    tau_tail,
)
from pdmpfrag.monotone import endpoint_integral
from conftest import power_model


def _one(x):
    return np.ones_like(np.asarray(x, float))


GROWTH = SemiflowSpec(regime=Regime.GROWTH, power_beta=1.0)

CALLS = {
    "run_chains-checkpoint-0": (ValueError, lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0], seed=0, n_max=4,
        checkpoints=[0, 4])),
    "run_chains-checkpoint-past-n_max": (ValueError, lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0], seed=0, n_max=4,
        checkpoints=[5])),
    "resolvent_series-negative-N": (ValueError, lambda: resolvent_series(
        power_model("pure_jump", alpha=-1.0), 1.0,
        GridDensity.uniform_in_m(LogGrid(0.5, 4.0, 8), 1.0, 2.0), N=-1)),
    "endpoint_integral-side": (ValueError, lambda: endpoint_integral(
        _one, 1.0, "left")),
    "tabulated-orientation": (ValueError, lambda: TabulatedIntegralMap(
        _one, orientation="sideways")),
    "tabulated-negative-integrand": (ValueError, lambda: TabulatedIntegralMap(
        lambda x: -_one(x), domain=(0.5, 2.0), n_nodes=16)),
    "tabulated-anchor-inf-from-below": (ValueError, lambda: TabulatedIntegralMap(
        _one, anchor=math.inf, domain=(0.5, 2.0), n_nodes=16)),
    "tabulated-anchor-0-from-above": (ValueError, lambda: TabulatedIntegralMap(
        lambda x: np.asarray(x, float) ** -2, orientation="from_above",
        anchor=0.0, domain=(0.5, 2.0), n_nodes=16)),
    "power-rate-a-0": (DomainError, lambda: build_characteristics(
        GROWTH, RateSpec(power=(0.0, 0.0)))),
    "power-rate-a-negative": (DomainError, lambda: build_characteristics(
        GROWTH, RateSpec(power=(-1.0, 0.0)))),
    "pure-jump-negative-phi": (DomainError, lambda: build_characteristics(
        SemiflowSpec(regime=Regime.PURE_JUMP), RateSpec(phi=lambda x: -_one(x)))),
    "tau_tail-negative-q": (ValueError, lambda: tau_tail(TauOracle(), -0.5)),
    "embedded_kernel-no-kernel": (OutOfRegime, lambda: embedded_kernel(
        build_characteristics(GROWTH, RateSpec(power=(1.0, 0.0))))),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_unreached_checks_raise_their_type(name):
    error, call = CALLS[name]
    with pytest.raises(error):
        call()
