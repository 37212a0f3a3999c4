"""Argument checks that no other test reaches: each raises its own type."""

import math

import numpy as np
import pytest

from pdmpfrag import (
    DomainError,
    GridDensity,
    GrowthTauParams,
    LogGrid,
    OutOfRegime,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    TabulatedIntegralMap,
    TauOracle,
    build_characteristics,
    classify,
    classify_power_family,
    dual_pairing,
    dyson_phillips,
    embedded_kernel,
    estimate_explosion_cdf,
    estimate_survival_mass,
    f_lambda_dual,
    f_lambda_grid,
    lyapunov_check,
    resolvent_A,
    resolvent_series,
    run_chains,
    sample_state,
    sample_tau,
    simulate_chain,
    tau_tail,
)
from pdmpfrag.monotone import endpoint_integral
from conftest import power_model


def _one(x):
    return np.ones_like(np.asarray(x, float))


GROWTH = SemiflowSpec(regime=Regime.GROWTH, power_beta=1.0)
# unit mass, all of it in the sub-grid bucket: nothing to sample starts from
NO_GRID_MASS = GridDensity(LogGrid(1e-3, 1e2, 64), np.zeros(64), 1.0)
SMALL_U = GridDensity.uniform_in_m(LogGrid(0.5, 4.0, 8), 1.0, 2.0)
# unit mass, half of it in the sub-grid bucket
HALF_OUT_OF_GRID = GridDensity(LogGrid(1e-3, 1e2, 64), np.full(64, 0.5 / 64),
                               0.5)

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
    # NaN and inf model parameters are refused where they enter: unchecked,
    # a nan nu or power ran a config to exit 0 with a wrong verdict or CDF,
    # a nan alpha read Stochastic off the closed-form table, and a nan beta
    # made sample_tau fail with NonConvergent after 100,000 draws
    "power-kernel-nu-nan": (ValueError, lambda: PowerLawKernel(math.nan)),
    "power-kernel-nu-inf": (ValueError, lambda: PowerLawKernel(math.inf)),
    "power-rate-a-nan": (ValueError, lambda: RateSpec(power=(math.nan, 0.0))),
    "power-rate-alpha-inf": (ValueError, lambda: RateSpec(
        power=(1.0, math.inf))),
    "pure-jump-nan-phi": (DomainError, lambda: build_characteristics(
        SemiflowSpec(regime=Regime.PURE_JUMP),
        RateSpec(phi=lambda x: math.nan * _one(x)))),
    "tau-oracle-nu-nan": (OutOfRegime, lambda: TauOracle(nu=math.nan)),
    "tau-oracle-gamma-inf": (OutOfRegime, lambda: TauOracle(gamma=math.inf)),
    "tau-oracle-a-nan": (OutOfRegime, lambda: TauOracle(a=math.nan)),
    "growth-tau-nu-inf": (OutOfRegime, lambda: GrowthTauParams(nu=math.inf)),
    "growth-tau-beta-nan": (OutOfRegime, lambda: GrowthTauParams(
        beta=math.nan)),
    "growth-tau-beta-0": (OutOfRegime, lambda: GrowthTauParams(beta=0.0)),
    "growth-tau-a-inf": (OutOfRegime, lambda: GrowthTauParams(a=math.inf)),
    "power-family-alpha-nan": (OutOfRegime, lambda: classify_power_family(
        math.nan, 0.0, 1.0, _one, "growth")),
    "power-family-beta-inf": (OutOfRegime, lambda: classify_power_family(
        0.0, math.inf, 1.0, _one)),
    "power-family-a-inf": (OutOfRegime, lambda: classify_power_family(
        1.0, 0.0, math.inf, _one)),
    # unchecked, a nan or inf beta was refused later as "g must be positive"
    "semiflow-beta-nan": (ValueError, lambda: SemiflowSpec(
        regime=Regime.GROWTH, power_beta=math.nan)),
    "semiflow-beta-inf": (ValueError, lambda: SemiflowSpec(
        regime=Regime.DECAY, power_beta=-math.inf)),
    # the tabulation needs one cell on a domain inside (0, inf): unchecked,
    # an infinite upper edge built a map whose inverse(0.5) of f = 1 read
    # 6.1e186, a reversed domain called f negative, a nan edge raised
    # NonIntegrableRate and one node a numpy zero-size error
    "tabulated-domain-hi-inf": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(1e-3, math.inf))),
    "tabulated-domain-reversed": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(10.0, 1.0))),
    "tabulated-domain-lo-nan": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(math.nan, 1.0))),
    "tabulated-domain-lo-0": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(0.0, 1.0))),
    "tabulated-one-node": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(0.5, 2.0), n_nodes=1)),
    # phi is probed in every regime: unchecked, a NaN phi built growth and
    # decay models whose asGQ/asGQd flags read verified with a nan limit of
    # Q, and a NaN cell integral passed the tabulation's sign test
    "growth-nan-phi": (DomainError, lambda: build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: np.where(x > 1e3, np.nan, x)))),
    "decay-nan-phi": (DomainError, lambda: build_characteristics(
        SemiflowSpec(regime=Regime.DECAY, power_beta=-1.0),
        RateSpec(phi=lambda x: np.where(x < 1e-3, np.nan, 1.0)))),
    "tabulated-nan-integrand": (ValueError, lambda: TabulatedIntegralMap(
        lambda x: np.where(x > 1.0, np.nan, 1.0), domain=(0.5, 2.0),
        n_nodes=16)),
    # an anchor lies in [0, inf]: unchecked, -1 built a map anchored at -1
    # (V(0.5) = 1.5 for f = 1 on (0.5, 2)) and nan raised NonIntegrableRate
    "tabulated-anchor-negative": (ValueError, lambda: TabulatedIntegralMap(
        _one, anchor=-1.0, domain=(0.5, 2.0), n_nodes=16)),
    "tabulated-anchor-nan": (ValueError, lambda: TabulatedIntegralMap(
        _one, anchor=math.nan, domain=(0.5, 2.0), n_nodes=16)),
    # a step count is an integer: unchecked, no checkpoints failed with an
    # IndexError, 2.7 ran as step 2, an n_iter of 2.5 as 2 iterations and
    # a fractional n_max ended in a TypeError
    "run_chains-no-checkpoints": (ValueError, lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0, 2.0], seed=0, n_max=5,
        checkpoints=[])),
    "run_chains-fractional-checkpoint": (ValueError, lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0, 2.0], seed=0, n_max=5,
        checkpoints=[2.7, 5])),
    "run_chains-fractional-n_max": (ValueError, lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0, 2.0], seed=0, n_max=5.5,
        checkpoints=[2])),
    "sample_state-fractional-n_max": (ValueError, lambda: sample_state(
        power_model("pure_jump", alpha=-1.0), [1.0], 0.5, seed=0, n_max=2.5)),
    "simulate_chain-fractional-n_max": (ValueError, lambda: simulate_chain(
        power_model("pure_jump", alpha=-1.0), 1.0, seed=0, n_max=2.5)),
    "classify-fractional-n_iter": (ValueError, lambda: classify(
        power_model("pure_jump", alpha=-1.0),
        budgets={"n_iter": 2.5, "n_paths": 10})),
    # unchecked, a NaN cell passed the sign test of R(lam, A) and a density
    # with no grid mass was divided by it, each ending in a RuntimeWarning
    "resolvent-A-nan-mass": (ValueError, lambda: resolvent_A(
        power_model("growth", alpha=0.0, beta=0.0), 1.0,
        GridDensity(LogGrid(1e-3, 1e2, 64), np.full(64, math.nan)))),
    "survival-no-grid-mass": (ValueError, lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), NO_GRID_MASS, 1.0, 100,
        seed=0)),
    "pairing-no-grid-mass": (ValueError, lambda: dual_pairing(
        power_model("pure_jump", alpha=-1.0), 1.0, NO_GRID_MASS, 4, 10)),
    # starts come from the grid cells alone: unchecked, half of u in the
    # sub-grid bucket read a survival mass of 0.967 where the grid half
    # carries 0.484, and a pairing of half the all-grid value
    "survival-out-of-grid-mass": (ValueError, lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), HALF_OUT_OF_GRID, 1.0, 100,
        seed=0)),
    "pairing-out-of-grid-mass": (ValueError, lambda: dual_pairing(
        power_model("pure_jump", alpha=-1.0), 0.1, HALF_OUT_OF_GRID, 4, 10)),
    # a count is an integer, and an integral float such as 400.0 runs as
    # 400: unchecked, n_nodes = 2.5 built 2 nodes, and the other counts
    # failed with a TypeError from numpy or range
    "log-grid-fractional-n_cells": (ValueError, lambda: LogGrid(
        1e-4, 1e4, 64.5)),
    "tabulated-fractional-n_nodes": (ValueError, lambda: TabulatedIntegralMap(
        _one, domain=(0.5, 2.0), n_nodes=2.5)),
    "dyson-fractional-N": (ValueError, lambda: dyson_phillips(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, N=2.5)),
    "dyson-fractional-n_s": (ValueError, lambda: dyson_phillips(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, n_s=2.5)),
    "resolvent_series-fractional-N": (ValueError, lambda: resolvent_series(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, N=2.5)),
    "f_lambda_grid-fractional-n_iter": (ValueError, lambda: f_lambda_grid(
        power_model("pure_jump", alpha=-1.0), 1.0, LogGrid(1e-4, 1e2, 16),
        2.5)),
    # a path count and a draw budget too: unchecked, 100.5 (and 100.0, see
    # test_integral_float_counts_run_as_integers) failed with a TypeError
    # from numpy or range
    "explosion_cdf-fractional-n_paths": (ValueError, lambda:
        estimate_explosion_cdf(power_model("pure_jump", alpha=-1.0), 1.0, 1.0,
                               100.5, 20, seed=0)),
    "survival-fractional-n_paths": (ValueError, lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), SMALL_U, 1.0, 100.5, 20,
        seed=0)),
    "f_lambda_dual-fractional-n_paths": (ValueError, lambda: f_lambda_dual(
        power_model("pure_jump", alpha=-1.0), 1.0, [1.0], 8, 100.5)),
    "pairing-fractional-n_paths": (ValueError, lambda: dual_pairing(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, 8, 100.5)),
    "sample_tau-fractional-K_max": (ValueError, lambda: sample_tau(
        TauOracle(), np.random.default_rng(0), K_max=100.5)),
    # the minorant grid, a LogGrid, refuses r <= 0 and nan before any
    # kernel evaluation of the r-probes
    "lyapunov-r-probe-negative": (ValueError, lambda: lyapunov_check(
        embedded_kernel(power_model("growth", alpha=1.0, beta=0.0)),
        lambda y: np.asarray(y, float), [1.0, 2.0, 4.0], r_probes=[-1.0])),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_unreached_checks_raise_their_type(name):
    error, call = CALLS[name]
    with pytest.raises(error):
        call()


# a fractional step budget is refused by a message that names it: run_chains
# refused it first, naming its internal checkpoints ("need checkpoints and
# n_max integers: [10.0, 20.5], 20.5")
NAMED_BUDGETS = {
    "explosion_cdf-fractional-n_max": ("n_max", lambda: estimate_explosion_cdf(
        power_model("pure_jump", alpha=-1.0), 1.0, 1.0, 100, 20.5, seed=0)),
    "survival-fractional-n_max": ("n_max", lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), SMALL_U, 1.0, 100, 20.5,
        seed=0)),
    "f_lambda_dual-fractional-n_iter": ("n_iter", lambda: f_lambda_dual(
        power_model("pure_jump", alpha=-1.0), 1.0, [1.0], 8.5, 10)),
    "pairing-fractional-n_iter": ("n_iter", lambda: dual_pairing(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, 8.5, 10)),
    "classify-fractional-n_iter": ("n_iter", lambda: classify(
        power_model("pure_jump", alpha=-1.0),
        budgets={"n_iter": 8.5, "n_paths": 10})),
    # so is a budget of no steps: run_chains refused it as "checkpoints must
    # lie in [1, n_max]"
    "explosion_cdf-zero-n_max": ("n_max", lambda: estimate_explosion_cdf(
        power_model("pure_jump", alpha=-1.0), 1.0, 1.0, 100, 0, seed=0)),
    "survival-zero-n_max": ("n_max", lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), SMALL_U, 1.0, 100, 0, seed=0)),
    "run_chains-zero-n_max": ("n_max", lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0], seed=0, n_max=0)),
}


@pytest.mark.parametrize("name", sorted(NAMED_BUDGETS))
def test_fractional_budgets_name_the_parameter(name):
    param, call = NAMED_BUDGETS[name]
    with pytest.raises(ValueError, match=param) as err:
        call()
    assert "checkpoints" not in str(err.value)


# every count is refused by one rule, with a ValueError naming the parameter
# and its bound; unchecked, -5 paths failed in numpy ("negative dimensions
# are not allowed"), K_max = 0 raised NonConvergent, a numerical error, and
# True and "200" ran as 1 cell and 200 paths
BAD_COUNTS = {
    "log_grid-n_cells-true": ("n_cells >= 1", lambda: LogGrid(0.5, 4.0, True)),
    "log_grid-n_cells-string": ("n_cells >= 1", lambda: LogGrid(0.5, 4.0, "8")),
    "log_grid-n_cells-numpy-bool": ("n_cells >= 1", lambda: LogGrid(
        0.5, 4.0, np.True_)),
    "tabulated-n_nodes-1": ("n_nodes >= 2", lambda: TabulatedIntegralMap(
        _one, domain=(0.5, 2.0), n_nodes=1)),
    "dyson-negative-N": ("N >= 0", lambda: dyson_phillips(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, N=-1)),
    "dyson-zero-n_s": ("n_s >= 1", lambda: dyson_phillips(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, n_s=0)),
    "resolvent_series-nan-N": ("N >= 0", lambda: resolvent_series(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, N=math.nan)),
    "simulate_chain-zero-n_max": ("n_max >= 1", lambda: simulate_chain(
        power_model("pure_jump", alpha=-1.0), 1.0, seed=0, n_max=0)),
    "sample_state-inf-n_max": ("n_max >= 1", lambda: sample_state(
        power_model("pure_jump", alpha=-1.0), [1.0], 0.5, seed=0,
        n_max=math.inf)),
    "run_chains-true-n_max": ("n_max >= 1", lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0], seed=0, n_max=True)),
    "run_chains-checkpoint-0": ("checkpoint >= 1", lambda: run_chains(
        power_model("pure_jump", alpha=-1.0), [1.0], seed=0, n_max=4,
        checkpoints=[0, 4])),
    "explosion_cdf-negative-n_paths": ("n_paths >= 100", lambda:
        estimate_explosion_cdf(power_model("pure_jump", alpha=-1.0), 1.0, 1.0,
                               -5, seed=0)),
    "explosion_cdf-string-n_paths": ("n_paths >= 100", lambda:
        estimate_explosion_cdf(power_model("pure_jump", alpha=-1.0), 1.0, 1.0,
                               "200", 20, seed=0)),
    "survival-true-n_paths": ("n_paths >= 100", lambda: estimate_survival_mass(
        power_model("pure_jump", alpha=-1.0), SMALL_U, 1.0, True, 20,
        seed=0)),
    "f_lambda_grid-negative-n_iter": ("n_iter >= 0", lambda: f_lambda_grid(
        power_model("pure_jump", alpha=-1.0), 1.0, LogGrid(1e-4, 1e2, 16),
        -1)),
    "f_lambda_dual-one-path": ("n_paths >= 2", lambda: f_lambda_dual(
        power_model("pure_jump", alpha=-1.0), 1.0, [1.0], 8, 1)),
    "pairing-zero-n_iter": ("n_iter >= 1", lambda: dual_pairing(
        power_model("pure_jump", alpha=-1.0), 1.0, SMALL_U, 0, 10)),
    "classify-string-n_paths": ("n_paths >= 2", lambda: classify(
        power_model("pure_jump", alpha=-1.0),
        budgets={"n_iter": 8, "n_paths": "10"})),
    "sample_tau-zero-K_max": ("K_max >= 1", lambda: sample_tau(
        TauOracle(), np.random.default_rng(0), K_max=0)),
}


@pytest.mark.parametrize("name", sorted(BAD_COUNTS))
def test_bad_counts_are_refused_by_name_and_bound(name):
    match, call = BAD_COUNTS[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_integral_float_counts_run_as_integers():
    # a count of 8.0 is the count 8: the same edges, nodes, terms and iterates
    spec = power_model("pure_jump", alpha=-1.0)
    assert np.array_equal(LogGrid(0.5, 4.0, 8.0).edges, SMALL_U.grid.edges)
    assert np.array_equal(
        TabulatedIntegralMap(_one, domain=(0.5, 2.0), n_nodes=16.0).nodes,
        TabulatedIntegralMap(_one, domain=(0.5, 2.0), n_nodes=16).nodes)
    for got, want in (
            (dyson_phillips(spec, 1.0, SMALL_U, N=8.0, n_s=4.0),
             dyson_phillips(spec, 1.0, SMALL_U, N=8, n_s=4)),
            (resolvent_series(spec, 1.0, SMALL_U, N=3.0),
             resolvent_series(spec, 1.0, SMALL_U, N=3))):
        assert np.array_equal(got[0].masses, want[0].masses)
        assert got[1].term_norms == want[1].term_norms
    grid = LogGrid(1e-4, 1e2, 16)
    assert np.array_equal(f_lambda_grid(spec, 1.0, grid, 3.0),
                          f_lambda_grid(spec, 1.0, grid, 3))
    # 100.0 paths are 100 paths: the same estimates, the count an int
    for run in (
            lambda n: estimate_explosion_cdf(spec, 1.0, 1.0, n, 20, seed=0),
            lambda n: estimate_survival_mass(spec, SMALL_U, 1.0, n, 20,
                                             seed=0),
            lambda n: f_lambda_dual(spec, 1.0, [1.0], 8, n)[0],
            lambda n: dual_pairing(spec, 1.0, SMALL_U, 8, n)):
        got = run(100.0)
        assert got == run(100) and type(got.n_paths) is int
    assert (sample_tau(TauOracle(), np.random.default_rng(0), K_max=100.0)
            == sample_tau(TauOracle(), np.random.default_rng(0), K_max=100))
    # and a budget of 20.0 steps is 20 steps
    for run in (
            lambda n: estimate_explosion_cdf(spec, 1.0, 1.0, 100, n, seed=0),
            lambda n: estimate_survival_mass(spec, SMALL_U, 1.0, 100, n,
                                             seed=0),
            lambda n: f_lambda_dual(spec, 1.0, [1.0], n, 100)[0],
            lambda n: dual_pairing(spec, 1.0, SMALL_U, n, 100)):
        got = run(20.0)
        assert got == run(20)
        assert all(type(v) is int for k, v in got.diagnostics.items()
                   if k in ("n_max", "n_iter"))
