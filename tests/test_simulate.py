"""Monte Carlo jump-chain engine: exactness, reproducibility, estimators."""

import math

import numpy as np
import pytest
from scipy import stats

from pdmpfrag import (
    CEMETERY,
    HorizonExceeded,
    NotADensity,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    TauOracle,
    TrajectoryStatus,
    build_characteristics,
    estimate_explosion_cdf,
    estimate_laplace_explosion,
    estimate_survival_mass,
    path_rng,
    run_chains,
    simulate_chain,
    state_at,
)
from pdmpfrag.density import GridDensity
from pdmpfrag.oracles import explosion_cdf
from conftest import aligned_grid, power_model, unit_decay_model

# Golden jump chain, frozen from a straight-line reference implementation of
# the recursion dt_n = eps_n / phi(xi_{n-1}), xi_n = sqrt(theta_n) xi_{n-1}
# for pure fragmentation phi(x) = 1/x, h = 2, x0 = 1, seed 42, path 0.
GOLDEN_TIMES = np.array([
    0.0, 1.715899855890263, 2.5956861715207498, 2.7211329103372948,
    2.7601206042213993, 2.854217399986573, 2.8711685802479594,
    2.8717276946640755, 2.879657545926296, 2.896166309056027,
    2.899188849638138])
GOLDEN_POSITIONS = np.array([
    1.0, 0.4350237052005959, 0.27326327341339596, 0.18011475631665055,
    0.04493789567825457, 0.03935692590336697, 0.008136855947062415,
    0.006080001924455355, 0.0038309587315392695, 0.003517827531693889,
    0.002969578313515376])


def test_golden_chain(pure_frag):
    tr = simulate_chain(pure_frag, 1.0, seed=42, path_id=0, n_max=10)
    assert tr.status is TrajectoryStatus.EXHAUSTED_JUMP_BUDGET
    np.testing.assert_allclose(tr.jump_times, GOLDEN_TIMES, rtol=1e-13, atol=0)
    np.testing.assert_allclose(tr.positions, GOLDEN_POSITIONS, rtol=1e-13,
                               atol=0)


def test_chain_matches_raw_draws(pure_frag):
    # the recorded chain must reproduce the jump-chain recursion applied directly
    # to the path's own uniform draws
    tr = simulate_chain(pure_frag, 1.0, seed=7, path_id=3, n_max=12)
    gen = path_rng(7, 3)
    x = 1.0
    for n in range(1, len(tr.jump_times)):
        u_eps, u_theta = gen.random(2)
        eps = -math.log1p(-u_eps)
        dt = eps * x  # eps / phi(x) with phi = 1/x
        assert abs(tr.jump_times[n] - tr.jump_times[n - 1] - dt) < 1e-15 * (1 + dt)
        x = math.sqrt(u_theta) * x
        assert abs(tr.positions[n] - x) < 1e-15 * x


def test_constant_rate_holding_times():
    # growth, phi = a constant: holding times are eps_n / a regardless of state
    spec = power_model("growth", alpha=0.0, beta=0.0, a=2.0)
    tr = simulate_chain(spec, 5.0, seed=11, path_id=0, n_max=8)
    gen = path_rng(11, 0)
    for dt in tr.holding_times:
        u_eps, _ = gen.random(2)
        assert abs(dt - (-math.log1p(-u_eps)) / 2.0) < 1e-12


def test_positions_decrease_for_fragmentation(pure_frag):
    dec = power_model("decay", alpha=-1.0, beta=0.0)
    for spec in (pure_frag, dec):
        for pid in range(5):
            tr = simulate_chain(spec, 2.0, seed=3, path_id=pid, n_max=50)
            assert np.all(np.diff(tr.positions) < 0)
            assert np.all(np.diff(tr.jump_times) > 0)


def test_jump_times_strictly_increase(pure_frag):
    # deep in the chain the increments fall below the ulp of t; such steps
    # settle the chain instead of recording t_n == t_{n-1}
    for pid in range(10):
        tr = simulate_chain(pure_frag, 1.0, seed=42, path_id=pid, n_max=200)
        assert np.all(np.diff(tr.jump_times) > 0)


def test_reproducibility_bitwise(pure_frag):
    a = simulate_chain(pure_frag, 1.0, seed=9, path_id=5, n_max=40)
    b = simulate_chain(pure_frag, 1.0, seed=9, path_id=5, n_max=40)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.positions, b.positions)


# model builder and start state for the one-path / batched comparison
ENGINE_MODELS = {
    "pure_frag": (lambda: power_model("pure_jump", alpha=-1.0), 1.0),
    "bounded_pure_jump": (lambda: power_model("pure_jump", alpha=0.0), 1.0),
    "growth": (lambda: power_model("growth", alpha=-1.0, beta=1.0, nu=-1.5),
               1.0),
    "decay": (lambda: power_model("decay", alpha=-1.0, beta=0.0), 2.0),
    "decay_exit": (unit_decay_model, 0.5),
    # phi as a plain callable: Q is a tabulated map
    "tabulated_growth": (lambda: build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: x), PowerLawKernel(0.0)), 1.0),
}


@pytest.mark.parametrize("model", sorted(ENGINE_MODELS))
def test_run_chains_matches_scalar_and_workers(model):
    build, x0 = ENGINE_MODELS[model]
    spec = build()
    n_max, t_stop = 30, 3.0
    x0s = np.full(64, x0)
    t1, x1, s1, _ = run_chains(spec, x0s, seed=21, n_max=n_max,
                               checkpoints=range(1, n_max + 1), t_stop=t_stop,
                               workers=1)
    t4, x4, s4, _ = run_chains(spec, x0s, seed=21, n_max=n_max,
                               checkpoints=range(1, n_max + 1), t_stop=t_stop,
                               workers=4)
    assert np.array_equal(t1, t4) and np.array_equal(x1, x4)
    assert np.array_equal(s1, s4)
    for pid in range(len(x0s)):
        tr = simulate_chain(spec, x0, seed=21, path_id=pid, n_max=n_max,
                            t_max=t_stop)
        n = len(tr.jump_times) - 1
        assert np.array_equal(tr.jump_times[1:], t1[:n, pid])
        assert np.all(t1[n:, pid] == tr.jump_times[-1])  # settled: repeats
        assert np.array_equal(tr.positions[-1], x1[pid])
        settled = (TrajectoryStatus.EXHAUSTED_JUMP_BUDGET
                   if 0 < x1[pid] < np.inf
                   else TrajectoryStatus.DOMAIN_EXIT_AT_ZERO)
        assert tr.status is (TrajectoryStatus.EXHAUSTED_JUMP_BUDGET, settled,
                             TrajectoryStatus.ALIVE_AT_HORIZON,
                             TrajectoryStatus.DOMAIN_EXIT_AT_ZERO)[s1[pid]]


def test_domain_exit_at_zero():
    spec = unit_decay_model()
    tr = simulate_chain(spec, 0.5, seed=2, path_id=0, n_max=10_000)
    assert tr.status is TrajectoryStatus.DOMAIN_EXIT_AT_ZERO
    assert tr.positions[-1] == 0.0
    # total elapsed time equals x0 plus nothing: the state travels at unit
    # speed and jumps are instantaneous, so exit happens exactly at t = x0...
    # jumps only shorten the remaining distance, hence t_exit <= x0
    assert tr.jump_times[-1] <= 0.5 + 1e-12
    assert state_at(tr, spec, tr.jump_times[-1] + 1.0) == 0.0


def test_state_at(pure_frag):
    tr = simulate_chain(pure_frag, 1.0, seed=42, path_id=0, n_max=10)
    assert state_at(tr, pure_frag, 0.0) == 1.0
    # pure jump: constant between jumps
    tmid = 0.5 * (tr.jump_times[1] + tr.jump_times[2])
    assert state_at(tr, pure_frag, tmid) == tr.positions[1]
    # past the recorded budget: possibly exploded
    assert state_at(tr, pure_frag, tr.jump_times[-1] + 1.0) is CEMETERY
    # growth g = x: exponential flow between jumps
    spec = power_model("growth", alpha=0.0, beta=0.0, a=1.0)
    trg = simulate_chain(spec, 1.0, seed=5, path_id=0, n_max=6)
    t = 0.5 * (trg.jump_times[2] + trg.jump_times[3])
    want = trg.positions[2] * math.exp(t - trg.jump_times[2])
    assert abs(state_at(trg, spec, t) - want) < 1e-9 * want


def test_state_at_horizon_guard(pure_frag):
    tr = simulate_chain(pure_frag, 1.0, seed=1, path_id=0, n_max=10_000,
                        t_max=0.5)
    assert tr.status is TrajectoryStatus.ALIVE_AT_HORIZON
    with pytest.raises(HorizonExceeded):
        state_at(tr, pure_frag, 2.0)


def test_trajectory_csv(tmp_path, pure_frag):
    tr = simulate_chain(pure_frag, 1.0, seed=42, path_id=0, n_max=5)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (6, 3)
    np.testing.assert_allclose(data[:, 1], tr.jump_times)


def test_explosion_cdf_estimator(pure_frag):
    assert estimate_explosion_cdf(pure_frag, 1.0, 0.0, 200, 100,
                                  seed=0).value == 0.0
    # bounded phi: explosion estimate vanishes for n_max >> a t
    bounded = power_model("growth", alpha=0.0, beta=0.0, a=1.0)
    est = estimate_explosion_cdf(bounded, 1.0, 1.0, 2000, 64, seed=0)
    assert est.value < 0.01
    # gamma law: MC vs oracle within 3 SE
    oracle = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    est = estimate_explosion_cdf(pure_frag, 1.0, 1.0, 20_000, 3000, seed=1)
    want = explosion_cdf(oracle, 1.0, 1.0)
    assert abs(est.value - want) <= 3.0 * est.std_error
    assert "value_at_half_budget" in est.diagnostics


def test_explosion_cdf_monotone_in_budget(pure_frag):
    e1 = estimate_explosion_cdf(pure_frag, 1.0, 2.0, 5000, 200, seed=4)
    e2 = estimate_explosion_cdf(pure_frag, 1.0, 2.0, 5000, 400, seed=4)
    assert e2.value <= e1.value + 2.0 * (e1.std_error + e2.std_error)


def test_laplace_estimator(pure_frag, bounded_pure_jump):
    est = estimate_laplace_explosion(bounded_pure_jump, 1.0, 1.0, 2000, 256,
                                     seed=0)
    assert est.value < 0.02
    # gamma law: E e^{-tau} = (1 + lambda)^{-3} = 0.125 at lambda = 1, x0 = 1
    est = estimate_laplace_explosion(pure_frag, 1.0, 1.0, 20_000, 2000, seed=2)
    assert abs(est.value - 0.125) <= 3.0 * est.std_error
    est = estimate_laplace_explosion(pure_frag, 1.0, 1e6, 1000, 100, seed=0)
    assert est.value < 1e-6


def test_survival_mass_estimator(pure_frag, bounded_pure_jump):
    grid = aligned_grid()
    u0 = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    assert estimate_survival_mass(pure_frag, u0, 0.0, 500, 100,
                                  seed=0).value == 1.0
    est = estimate_survival_mass(bounded_pure_jump, u0, 5.0, 2000, 10_000,
                                 seed=0)
    assert abs(est.value - 1.0) <= 3.0 * est.std_error + 1e-12
    with pytest.raises(NotADensity):
        bad = GridDensity.uniform_in_m(grid, 1.0, 2.0)
        bad.masses = bad.masses * 0.5
        estimate_survival_mass(pure_frag, bad, 1.0, 500, 100, seed=0)


def test_survival_mass_vs_oracle(pure_frag):
    from pdmpfrag import exact_mass
    grid = aligned_grid()
    u0 = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    oracle = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    est = estimate_survival_mass(pure_frag, u0, 1.0, 20_000, 3000, seed=3)
    want = exact_mass(oracle, 1.0, u0)
    assert abs(est.value - want) <= 3.0 * est.std_error


def test_golden_chain_gamma_distribution(pure_frag):
    # distributional sanity at modest N: explosion times vs the gamma law
    times, _, _, _ = run_chains(pure_frag, np.full(4000, 1.0), seed=8,
                                n_max=2000)
    res = stats.kstest(times[0], stats.gamma(3.0).cdf)
    assert res.statistic < 1.63 / math.sqrt(4000)
