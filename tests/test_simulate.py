"""Monte Carlo jump-chain engine: exactness, reproducibility, estimators."""

import math

import numpy as np
import pytest
from scipy import stats

from pdmpfrag import (
    LogGrid,
    NotADensity,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    TauOracle,
    TrajectoryStatus,
    build_characteristics,
    dyson_phillips,
    estimate_explosion_cdf,
    estimate_survival_mass,
    exact_mass,
    f_lambda_dual,
    f_lambda_grid,
    path_rng,
    run_chains,
    sample_state,
    simulate_chain,
)
from pdmpfrag.density import GridDensity
from pdmpfrag.oracles import explosion_cdf
from pdmpfrag.simulate import (
    _ABSORBED,
    _PARKED,
    _RUNNING,
    _stratified_starts,
    _uniforms,
)
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
def test_run_chains_matches_scalar(model):
    build, x0 = ENGINE_MODELS[model]
    spec = build()
    n_max, t_stop = 30, 3.0
    x0s = np.full(64, x0)
    t1, x1, s1, _ = run_chains(spec, x0s, seed=21, n_max=n_max,
                               checkpoints=range(1, n_max + 1), t_stop=t_stop)
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


def test_uniforms_match_path_rng():
    # the stateless stream is numpy's Philox stream of path_rng, bitwise
    rng = np.random.default_rng(2024)
    pairs = [(int(s), int(p)) for s, p in zip(
        rng.integers(0, 2 ** 64, 500, dtype=np.uint64, endpoint=False),
        rng.integers(0, 2 ** 64, 500, dtype=np.uint64, endpoint=False))]
    pairs += [(7, pid) for pid in (0, 2 ** 62, 2 ** 63, 2 ** 64 - 1)]
    for seed, pid in pairs:
        assert np.array_equal(_uniforms(seed, [pid], 0, 64)[:, 0],
                              path_rng(seed, pid).random(64))
    # many paths in one call, a window past 10^6 that starts mid-block
    seed, pids = pairs[0][0], [p for _, p in pairs[-8:]]
    start = 10 ** 6 + 3
    got = _uniforms(seed, pids, start, 6)
    for col, pid in zip(got.T, pids):
        assert np.array_equal(col, path_rng(seed, pid).random(start + 6)[start:])
    # several blocks and several paths in one call: the folded rounds
    # broadcast a (blocks, 1) column against the paths' keys and wrap
    # Python-int products around 2**64
    pids = [0, 5, 2 ** 63, 0x123456789ABCDEF0, 2 ** 64 - 1]
    for seed in (0, 7, 0xFEDCBA9876543210, 2 ** 64 - 1):
        for start in range(9):
            for n in (1, 3, 6, 37):
                got = _uniforms(seed, pids, start, n)
                assert got.shape == (n, len(pids))
                for col, pid in zip(got.T, pids):
                    want = path_rng(seed, pid).random(start + n)[start:]
                    assert np.array_equal(col, want), (seed, pid, start, n)


def _no_draws(*args):
    raise AssertionError("a draw was made")


def test_nan_start_rejected_by_explosion_cdf(pure_frag, monkeypatch):
    # unchecked, a NaN start counts every path as exploded: 1.0, SE 0
    monkeypatch.setattr("pdmpfrag.simulate._uniforms", _no_draws)
    with pytest.raises(ValueError, match="not in"):
        estimate_explosion_cdf(pure_frag, math.nan, 1.0, 100, seed=1)


def test_nan_start_rejected_by_simulate_chain(pure_frag, monkeypatch):
    # unchecked, a NaN start gives a domain-exit trajectory at x = nan
    monkeypatch.setattr("pdmpfrag.simulate._uniforms", _no_draws)
    with pytest.raises(ValueError, match="not in"):
        simulate_chain(pure_frag, math.nan, seed=1)


def test_negative_start_rejected_by_run_chains(pure_frag, monkeypatch):
    # unchecked, a negative start meets a zero jump rate mid-run
    monkeypatch.setattr("pdmpfrag.simulate._uniforms", _no_draws)
    with pytest.raises(ValueError, match="not in"):
        run_chains(pure_frag, [1.0, -1.0], seed=1, n_max=10)


def test_infinite_start_rejected_by_run_chains(monkeypatch):
    # unchecked, a decay model (g = x^2, phi = 1) runs paths from inf
    spec = power_model("decay", alpha=0.0, beta=-1.0)
    monkeypatch.setattr("pdmpfrag.simulate._uniforms", _no_draws)
    with pytest.raises(ValueError, match="not in"):
        run_chains(spec, [2.0, math.inf], seed=1, n_max=10)
    with pytest.raises(ValueError, match="not in"):
        simulate_chain(spec, math.inf, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -2 ** 70])
def test_uniforms_reject_seeds_like_path_rng(seed):
    with pytest.raises(Exception) as want:
        path_rng(seed, 0)
    with pytest.raises(want.type) as got:
        _uniforms(seed, [0], 0, 4)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("model", ["pure_frag", "decay_exit"])
def test_run_chains_independent_of_batch_split(model):
    # a path's draws depend on (seed, path id) only, not on the batch size,
    # which sets the refill size: 1 and 7 paths refill 32 blocks at a time,
    # 2,000 paths 8 at first
    build, x0 = ENGINE_MODELS[model]
    spec = build()
    x0s = x0 * np.exp(np.random.default_rng(8).uniform(-0.5, 0.5, 2000))
    kw = dict(seed=13, n_max=150, checkpoints=(1, 5, 64, 65, 150), t_stop=3.0)
    whole = run_chains(spec, x0s, **kw)
    for k in (1, 7, len(x0s) - 3):
        head = run_chains(spec, x0s[:k], **kw)
        tail = run_chains(spec, x0s[k:], path_offset=k, **kw)
        for a, b, c in zip(whole[:3], head[:3], tail[:3]):
            assert np.array_equal(a, np.concatenate([b, c], axis=-1))


def test_integral_float_budgets_run_as_integers(pure_frag):
    # n_max = 5.0 runs as 5 in every view: unchecked, it ended in a
    # TypeError in simulate_chain and in run_chains below its checkpoints
    x0s = np.linspace(0.5, 2.0, 16)

    def views(n_max):
        times, xs, status, cps = run_chains(pure_frag, x0s, seed=3,
                                            n_max=n_max, checkpoints=[2, 2.0])
        state = sample_state(pure_frag, x0s, 0.3, seed=3, n_max=n_max)
        tr = simulate_chain(pure_frag, 1.0, seed=3, n_max=n_max)
        return cps, (times, xs, status, *state, tr.jump_times, tr.positions)

    (cps, want), (cps_f, got) = views(5), views(5.0)
    assert cps == cps_f == [2]
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def test_domain_exit_at_zero():
    spec = unit_decay_model()
    tr = simulate_chain(spec, 0.5, seed=2, path_id=0, n_max=10_000)
    assert tr.status is TrajectoryStatus.DOMAIN_EXIT_AT_ZERO
    assert tr.positions[-1] == 0.0
    # total elapsed time equals x0 plus nothing: the state travels at unit
    # speed and jumps are instantaneous, so exit happens exactly at t = x0...
    # jumps only shorten the remaining distance, hence t_exit <= x0
    t_exit = tr.jump_times[-1]
    assert t_exit <= 0.5 + 1e-12
    # absorbed before t the path is dead; absorbed after t, alive at t on
    # the orbit from its last jump
    x_t, n_t, status = sample_state(spec, [0.5], t_exit + 1.0, seed=2)
    assert np.isnan(x_t[0]) and status[0] == _ABSORBED
    assert n_t[0] == len(tr.jump_times) - 2
    t = 0.5 * (tr.jump_times[-2] + t_exit)
    x_t, n_t, status = sample_state(spec, [0.5], t, seed=2)
    assert status[0] == _ABSORBED and n_t[0] == len(tr.jump_times) - 2
    assert abs(x_t[0] - (tr.positions[-2] - (t - tr.jump_times[-2]))) < 1e-12


def test_sample_state(pure_frag):
    # X(t) and N(t) are the chain's state between its jumps around t
    x0s = np.full(20, 1.0)
    assert np.array_equal(sample_state(pure_frag, x0s, 0.0, seed=42)[0], x0s)
    for spec, t in ((pure_frag, 2.0),
                    (power_model("growth", alpha=0.0, beta=0.0), 1.5)):
        x_t, n_t, status = sample_state(spec, x0s, t, seed=42, n_max=50)
        for p in range(len(x0s)):
            tr = simulate_chain(spec, 1.0, seed=42, path_id=p, n_max=50,
                                t_max=t)
            n = n_t[p]
            if np.isnan(x_t[p]):  # 50 jumps by t: possibly exploded
                assert status[p] == _RUNNING and n == 50
                assert tr.jump_times[n] <= t
                continue
            assert status[p] == _PARKED
            assert tr.jump_times[n] <= t < tr.jump_times[n + 1]
            # pure jump: constant between jumps; growth g = x: exponential
            want = tr.positions[n] * (math.exp(t - tr.jump_times[n])
                                      if spec is not pure_frag else 1.0)
            assert abs(x_t[p] - want) <= 1e-12 * want
    # past the jump budget a path may have exploded: no state, n_max jumps
    x_t, n_t, status = sample_state(pure_frag, x0s, 100.0, seed=42, n_max=10)
    assert np.all(np.isnan(x_t)) and np.all(n_t == 10)
    assert np.all(status == _RUNNING)


def test_sample_state_stops_at_t(pure_frag):
    # a chain run to t_max = t ends in the step that takes it past t, and
    # sample_state reads X(t) off the state before that step
    tr = simulate_chain(pure_frag, 1.0, seed=1, path_id=0, n_max=10_000,
                        t_max=0.5)
    assert tr.status is TrajectoryStatus.ALIVE_AT_HORIZON
    x_t, n_t, status = sample_state(pure_frag, [1.0], 0.5, seed=1)
    assert status[0] == _PARKED and n_t[0] == len(tr.jump_times) - 2
    assert x_t[0] == tr.positions[-2]
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must lie"):
            sample_state(pure_frag, [1.0], t, seed=1)


# the law of X(t) and N(t) on g = x, phi = 1 from u0 uniform in m on [1, 2]:
# stratified starts, seed 7, t = 4, against a Dyson-Phillips grid
LAW_PATHS, LAW_SEED, LAW_T = 50_000, 7, 4.0


@pytest.fixture(scope="module")
def growth_law():
    spec = power_model("growth", alpha=0.0, beta=0.0)
    u0 = GridDensity.uniform_in_m(LogGrid(1e-6, 1e2, 256), 1.0, 2.0)
    x0s = _stratified_starts(u0, LAW_PATHS, LAW_SEED, "survival")
    return spec, u0, sample_state(spec, x0s, LAW_T, seed=LAW_SEED)


def _z(share, p, n):
    """(share - p) over the binomial SE of p, floored at 1/n."""
    return (share - p) / np.maximum(np.sqrt(p * (1.0 - p) / n), 1.0 / n)


def test_law_of_x_t_matches_the_grid(growth_law):
    # P(t)u0 is the law of X(t) on {t < t_inf}: the share of paths in each
    # group of 16 cells against the grid's mass there.  Only grid bins are
    # compared: mass above x_max can fragment back onto the grid.  The bound
    # was fixed before the run; seed 7 read 1.73
    spec, u0, (x_t, _, _) = growth_law
    grid = u0.grid
    res, _ = dyson_phillips(spec, LAW_T, u0, N=60, n_s=64)
    mc = np.histogram(x_t[~np.isnan(x_t)], bins=grid.edges[::16])[0]
    z = _z(mc / LAW_PATHS, res.masses.reshape(16, 16).sum(axis=1), LAW_PATHS)
    assert np.max(np.abs(z)) <= 4.0


def test_law_of_n_t_is_poisson(growth_law):
    # phi = 1: N(t) is Poisson(t) whatever the drift, the law the Dyson
    # terms match (test_dyson_terms_are_the_jump_count_law); seed 7 read 3.25
    _, _, (_, n_t, _) = growth_law
    k = np.arange(20)
    share = np.bincount(n_t, minlength=len(k))[:len(k)] / LAW_PATHS
    z = _z(share, stats.poisson.pmf(k, LAW_T), LAW_PATHS)
    assert np.max(np.abs(z)) <= 4.0


def test_jump_count_law_matches_the_dyson_terms(pure_frag):
    # phi = 1/x shatters: term k of the Dyson sum is the mass alive at t
    # with N(t) = k.  The bound, fixed before the run, is 4 SE plus the
    # change of term k from n_s = 64 to 128; seed 7 read 0.49 of it
    u0 = GridDensity.uniform_in_m(LogGrid(1e-6, 1e2, 256), 1.0, 2.0)
    x0s = _stratified_starts(u0, LAW_PATHS, LAW_SEED, "survival")
    x_t, n_t, _ = sample_state(pure_frag, x0s, LAW_T, seed=LAW_SEED,
                               n_max=10_000)
    k = np.arange(12)
    share = np.bincount(n_t[~np.isnan(x_t)], minlength=len(k))[k] / LAW_PATHS
    terms = {n_s: np.asarray(dyson_phillips(pure_frag, LAW_T, u0, N=60,
                                            n_s=n_s)[1].term_norms)[k]
             for n_s in (64, 128)}
    se = np.maximum(np.sqrt(terms[128] * (1.0 - terms[128]) / LAW_PATHS),
                    1.0 / LAW_PATHS)
    bound = 4.0 * se + np.abs(terms[128] - terms[64])
    assert np.all(np.abs(share - terms[128]) <= bound)


@pytest.mark.parametrize("regime,alpha,beta", [
    ("growth", 0.0, 0.0), ("pure_jump", -1.0, None)])
def test_alive_share_is_the_survival_estimate(regime, alpha, beta):
    # the same starts, seed and budget: sample_state's alive paths are the
    # event estimate_survival_mass counts, bit for bit (1.0 and 0.50915)
    spec = power_model(regime, alpha=alpha, beta=beta)
    u0 = GridDensity.uniform_in_m(LogGrid(1e-6, 1e2, 256), 1.0, 2.0)
    est = estimate_survival_mass(spec, u0, 4.0, 20_000, 2000, seed=7)
    x0s = _stratified_starts(u0, 20_000, 7, "survival")
    x_t, _, _ = sample_state(spec, x0s, 4.0, seed=7, n_max=2000)
    assert float(np.mean(~np.isnan(x_t))) == est.value


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


@pytest.mark.parametrize("model", sorted(ENGINE_MODELS))
def test_explosion_cdf_over_times_is_one_batch(model, monkeypatch):
    # a sequence of t is read off one batch parked past the largest t, and
    # each Estimate is bitwise the one of a batch parked at its own t
    build, x0 = ENGINE_MODELS[model]
    spec = build()
    ts = [1.0, 0.0, 4.0, 0.25, 10.0]
    for n_max in (1, 2, 50):
        single = [estimate_explosion_cdf(spec, x0, t, 200, n_max, seed=3)
                  for t in ts]
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["t_stop"])
            return run_chains(*args, **kwargs)

        monkeypatch.setattr("pdmpfrag.simulate.run_chains", counted)
        many = estimate_explosion_cdf(spec, x0, ts, 200, n_max, seed=3)
        monkeypatch.undo()
        assert calls == [10.0]
        assert [(e.value, e.std_error, e.n_paths, e.diagnostics)
                for e in many] == [(e.value, e.std_error, e.n_paths,
                                    e.diagnostics) for e in single]


@pytest.mark.parametrize("t", [math.inf, math.nan, -1.0, [0.5, math.nan]])
def test_explosion_cdf_refuses_bad_times(pure_frag, bounded_pure_jump,
                                         monkeypatch, t):
    # unchecked, t = inf gave 1.0 +- 0 even for phi = 1, which never
    # explodes, and t = nan 0.0 +- 0
    monkeypatch.setattr("pdmpfrag.simulate._uniforms", _no_draws)
    u0 = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    with pytest.raises(ValueError, match=r"\[0, inf\)"):
        estimate_explosion_cdf(bounded_pure_jump, 1.0, t, 100, seed=0)
    if np.ndim(t) == 0:
        with pytest.raises(ValueError, match=r"\[0, inf\)"):
            estimate_survival_mass(pure_frag, u0, t, 100, seed=0)


def test_explosion_cdf_monotone_in_budget(pure_frag):
    e1 = estimate_explosion_cdf(pure_frag, 1.0, 2.0, 5000, 200, seed=4)
    e2 = estimate_explosion_cdf(pure_frag, 1.0, 2.0, 5000, 400, seed=4)
    assert e2.value <= e1.value + 2.0 * (e1.std_error + e2.std_error)


def test_laplace_estimator(pure_frag, bounded_pure_jump):
    # the Laplace transform of the explosion time is read off the jump chain
    # by f_lambda_dual: E e^{-lambda t_n} at the probe x0 = 1
    (est,) = f_lambda_dual(bounded_pure_jump, 1.0, [1.0], 256, n_paths=2000,
                           seed=0)
    assert est.value < 0.02
    # gamma law: E e^{-tau} = (1 + lambda)^{-3} = 0.125 at lambda = 1, x0 = 1
    (est,) = f_lambda_dual(pure_frag, 1.0, [1.0], 2000, n_paths=20_000,
                           seed=2)
    assert abs(est.value - 0.125) <= 3.0 * est.std_error
    # lambda = 1e6: paths are parked at t_stop = 745e-6, where every
    # weight has underflowed
    (est,) = f_lambda_dual(pure_frag, 1e6, [1.0], 100, n_paths=1000, seed=0)
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
    # too few paths is refused up front, as by estimate_explosion_cdf, not a
    # RuntimeWarning and a ZeroDivisionError
    for n_paths in (0, 99):
        with pytest.raises(ValueError, match="n_paths >= 100"):
            estimate_survival_mass(pure_frag, u0, 1.0, n_paths, 100, seed=0)


def test_survival_mass_vs_oracle(pure_frag):
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


# a call on the pure-fragmentation model phi = 1/x that must refuse its value
BAD_STOP_CALLS = {
    "run_chains_t_stop_nan": lambda spec: run_chains(
        spec, np.ones(8), seed=0, n_max=20, t_stop=math.nan),
    "simulate_chain_t_max_nan": lambda spec: simulate_chain(
        spec, 1.0, seed=0, n_max=20, t_max=math.nan),
    "f_lambda_grid_negative_lambda": lambda spec: f_lambda_grid(
        spec, -1.0, LogGrid(1e-4, 1e2, 64), 10),
    "f_lambda_grid_negative_n_iter": lambda spec: f_lambda_grid(
        spec, 1.0, LogGrid(1e-4, 1e2, 64), -1),
    "exact_mass_t_nan": lambda spec: exact_mass(
        TauOracle(), math.nan,
        GridDensity.uniform_in_m(LogGrid(1e-4, 1e2, 64), 1.0, 2.0)),
}


@pytest.mark.parametrize("name", sorted(BAD_STOP_CALLS))
def test_bad_stop_times_and_parameters_refused(name):
    # unchecked: t_stop = nan parked no path (every status 0), t_max = nan
    # ran to the jump budget, lambda = -1 gave iterates above 1 (1.0036),
    # n_iter = -1 gave ones and an oracle mass at t = nan read nan
    with pytest.raises(ValueError):
        BAD_STOP_CALLS[name](power_model("pure_jump", alpha=-1.0))
