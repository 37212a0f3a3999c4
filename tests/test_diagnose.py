"""Classification: f_lambda probes, decision table, embedded chain, Lyapunov."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from pdmpfrag import (
    InfiniteHolding,
    NonConvergent,
    OutOfRegime,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    TrajectoryStatus,
    Verdict,
    build_characteristics,
    classify,
    classify_power_family,
    dual_pairing,
    embedded_kernel,
    f_lambda_dual,
    f_lambda_grid,
    lyapunov_check,
    run_chains,
    simulate_chain,
)
from pdmpfrag import diagnose
from pdmpfrag.density import GridDensity, LogGrid
from conftest import aligned_grid, power_model, unit_decay_model


def _h_power(nu):
    return lambda z: (nu + 2.0) * np.asarray(z, float) ** nu


def test_f_lambda_dual_one_step(bounded_pure_jump):
    # phi = 1: t_1 ~ Exp(1), so E e^{-t_1} = 1/2
    (est,) = f_lambda_dual(bounded_pure_jump, 1.0, [1.0], 1, n_paths=4000,
                           seed=0)
    assert abs(est.value - 0.5) <= 3.0 * est.std_error


def test_f_lambda_dual_bounded_vanishes(bounded_pure_jump):
    (est,) = f_lambda_dual(bounded_pure_jump, 1.0, [1.0], 256, n_paths=400,
                           seed=1)
    assert est.value < 0.02


def test_f_lambda_dual_gamma_law(pure_frag):
    # f_lambda(x) = (1 + lambda x)^{-3} for phi = 1/x, h = 2
    ests = f_lambda_dual(pure_frag, 1.0, [1.0, 2.0], 200, n_paths=4000,
                         seed=2)
    assert abs(ests[0].value - 0.125) <= 3.0 * ests[0].std_error
    assert abs(ests[1].value - 1.0 / 27.0) <= 3.0 * ests[1].std_error


def test_f_lambda_dual_monotone_in_lambda(pure_frag):
    vals = [f_lambda_dual(pure_frag, lam, [1.0], 200, n_paths=1000,
                          seed=3)[0].value for lam in (0.1, 1.0, 10.0)]
    assert vals[0] > vals[1] > vals[2]


def test_f_lambda_dual_guards(pure_frag):
    with pytest.raises(ValueError):
        f_lambda_dual(pure_frag, -1.0, [1.0], 10)
    with pytest.raises(ValueError):
        f_lambda_dual(pure_frag, 1.0, [1.0], 0)
    # one path has no standard error (ddof=1 gives nan): refused before any
    # path runs, here and in the two estimators that share the rule
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    for estimate in (lambda: f_lambda_dual(pure_frag, 1.0, [1.0], 10, n_paths=1),
                     lambda: dual_pairing(pure_frag, 1.0, u, 10, 1),
                     lambda: classify(pure_frag, budgets={"n_paths": 1})):
        with pytest.raises(ValueError, match="n_paths >= 2"):
            estimate()
    # the lambdas are a nonempty set of finite values > 0, and classify
    # needs a probe: unchecked, no lambda ended in an IndexError, lambda = inf
    # weighed every path 0 (Stochastic), a nan lambda gave the verdict, and
    # no probe failed in max() of an empty table
    for lams in ([], [math.inf], [0.1, math.nan], [1.0, 0.0]):
        with pytest.raises(ValueError, match="finite lambdas > 0"):
            classify(pure_frag, lams, budgets={"n_iter": 4, "n_paths": 2})
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite lambdas > 0"):
            f_lambda_dual(pure_frag, lam, [1.0], 10)
    with pytest.raises(ValueError, match="at least one probe"):
        classify(pure_frag, probe_grid=[], budgets={"n_iter": 4})


def test_f_lambda_dual_absorbed_paths():
    # from x0 = 8 many paths hit 0 between the half-budget and the last
    # checkpoint; a path weighs e^{-lambda t_n} up to its absorption and 0
    # from then on, rebuilt here from the one-path chains of the same paths
    spec = unit_decay_model()
    lam, n_iter, n_paths, seed = 1.0, 8, 400, 5
    (est,) = f_lambda_dual(spec, lam, [8.0], n_iter, n_paths, seed=seed)
    chains = [simulate_chain(spec, 8.0, seed=seed, path_id=p, n_max=n_iter,
                             t_max=745.0 / lam) for p in range(n_paths)]
    late = [tr.status is TrajectoryStatus.DOMAIN_EXIT_AT_ZERO
            and len(tr.jump_times) > 5 for tr in chains]
    assert np.mean(late) > 0.1  # absorbed after the half-budget checkpoint

    def weights(n):
        w = []
        for tr in chains:
            k = min(n, len(tr.jump_times) - 1)
            w.append(0.0 if tr.positions[k] == 0.0
                     else math.exp(-lam * tr.jump_times[k]))
        return np.array(w)

    w_half, w_prev, w_full = weights(4), weights(7), weights(8)
    np.testing.assert_allclose(est.value, np.mean(w_full), rtol=1e-12)
    np.testing.assert_allclose(est.diagnostics["half_gap"],
                               np.mean(w_half - w_full), rtol=1e-12)
    np.testing.assert_allclose(est.diagnostics["decrement"],
                               np.mean(w_prev - w_full), rtol=1e-12)


def test_laplace_table_is_the_per_probe_reduction(pure_frag):
    # classify reduces the weights of every lambda and probe at once; each
    # row is bit for bit the 1-D mean, standard error and half-budget gap of
    # its own probe's paths, and the decision the extremes of the last rows
    lams, probes, n_iter, n_paths = (1.0, 0.1), [0.5, 2.0, 9.0], 12, 300
    res = classify(pure_frag, lams, probes,
                   {"n_iter": n_iter, "n_paths": n_paths}, seed=3)
    times, _, _, cps = run_chains(pure_frag, np.repeat(probes, n_paths),
                                  seed=3, n_max=n_iter, checkpoints=[6, 11, 12],
                                  t_stop=745.0 / 0.1)
    assert cps == [6, 11, 12]
    want = []
    for lam in lams:
        for i, x in enumerate(probes):
            cell = times[:, i * n_paths:(i + 1) * n_paths]
            half, _, full = np.exp(-lam * cell)
            want.append({"lam": lam, "x": x, "f_hat": float(np.mean(full)),
                         "se": float(np.std(full, ddof=1) / math.sqrt(n_paths)),
                         "n_iter": n_iter,
                         "half_gap": float(np.mean(half - full))})
    assert res.evidence == want
    assert [{k: type(v) for k, v in row.items()} for row in res.evidence] == \
        [{k: type(v) for k, v in row.items()} for row in want]
    last = want[-len(probes):]
    assert res.decision == {
        "eps_s": diagnose.EPS_S, "eps_ss": diagnose.EPS_SS,
        "eps_conv": diagnose.EPS_CONV,
        "max_upper_ci": max(r["f_hat"] + 3.0 * r["se"] for r in last),
        "min_lower_ci": min(r["f_hat"] - 3.0 * r["se"] for r in last),
        "max_half_gap": max(r["half_gap"] for r in last)}
    assert all(type(v) is float for v in res.decision.values())


def test_f_lambda_grid_cross_check(pure_frag):
    # grid dual iterate vs the closed form (1 + x)^{-3} at interior nodes
    grid = LogGrid(1e-6, 1e2, 256)
    f = f_lambda_grid(pure_frag, 1.0, grid, 400)
    sel = (grid.nodes >= 0.1) & (grid.nodes <= 10.0)
    want = (1.0 + grid.nodes[sel]) ** -3.0
    assert np.max(np.abs(f[sel] - want)) < 0.02
    with pytest.raises(OutOfRegime):
        f_lambda_grid(power_model("growth", alpha=0.0, beta=0.0), 1.0,
                      grid, 10)


def test_classify_strongly_stable(pure_frag):
    res = classify(pure_frag, lam_grid=(1e-1, 1e-3, 1e-5),
                   probe_grid=np.geomspace(1e-5, 10.0, 7),
                   budgets={"n_iter": 800, "n_paths": 400}, seed=5)
    assert res.verdict is Verdict.STRONGLY_STABLE
    assert len(res.evidence) == 21
    assert "smallest-lambda" in res.notes


def test_classify_stochastic(bounded_pure_jump):
    res = classify(bounded_pure_jump,
                   budgets={"n_iter": 800, "n_paths": 400}, seed=6)
    assert res.verdict is Verdict.STOCHASTIC


def test_classify_runs_one_batch(monkeypatch, bounded_pure_jump):
    # every (lambda, probe) cell comes from one run_chains call
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return run_chains(*args, **kwargs)

    monkeypatch.setattr(diagnose, "run_chains", counted)
    res = classify(bounded_pure_jump, budgets={"n_iter": 16, "n_paths": 50},
                   seed=0)
    assert len(res.evidence) == 21
    assert calls == [7 * 50]


def test_classify_refuses_unknown_budgets(bounded_pure_jump):
    # unchecked, a typo such as n_path ran with the default budgets
    with pytest.raises(ValueError, match=r"\['n_path'\].*n_iter, n_paths"):
        classify(bounded_pure_jump, budgets={"n_path": 3, "n_iter": 4})


def test_classification_csv(tmp_path, bounded_pure_jump):
    res = classify(bounded_pure_jump, budgets={"n_iter": 64, "n_paths": 100},
                   seed=0)
    path = tmp_path / "verdict.csv"
    res.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(res.evidence), 6)
    assert path.read_text().splitlines()[0].endswith(",n_iter,half_gap")
    # each row is the per-lambda f_lambda_dual estimate; the CSV carries it
    # to its 10 digits
    probes = np.geomspace(1e-3, 1e3, 7)
    want = np.array([[e.value, e.std_error, e.diagnostics["half_gap"]]
                     for lam in (1.0, 0.1, 0.01)
                     for e in f_lambda_dual(bounded_pure_jump, lam, probes,
                                            64, 100, seed=0)])
    got = np.array([[r["f_hat"], r["se"], r["half_gap"]]
                    for r in res.evidence])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(data[:, [2, 3, 5]], want, rtol=1e-9,
                               atol=1e-300)


def test_decision_table():
    h2 = _h_power(0.0)
    cases = [
        ("growth", 1.0, 0.0, 1.0, h2, Verdict.STOCHASTIC),
        ("growth", 0.0, 0.0, 1.0, h2, Verdict.STOCHASTIC),
        ("growth", -1.0, 1.0, 1.0, h2, Verdict.STOCHASTIC),
        ("growth", -1.0, 1.0, 1.0, _h_power(-1.5), Verdict.STRONGLY_STABLE),
        ("growth", 2.0, 0.5, 1.0, h2, Verdict.STOCHASTIC),
        ("decay", 0.0, -1.0, 1.0, h2, Verdict.STOCHASTIC),
        ("decay", 0.5, -1.0, 1.0, h2, Verdict.STOCHASTIC),
        ("decay", -0.5, -1.0, 1.0, h2, Verdict.STRONGLY_STABLE),
    ]
    for regime, alpha, beta, a, h, want in cases:
        res = classify_power_family(alpha, beta, a, h, regime)
        assert res.verdict is want, (regime, alpha, beta)
        assert res.method == "ClosedFormTable"
    # the mu0 >= -1/a boundary: nu = -1.5 gives mu0 = -2, so a < 1/2 is
    # stochastic and a > 1/2 strongly stable
    h = _h_power(-1.5)
    assert classify_power_family(-1.0, 1.0, 0.25, h).verdict \
        is Verdict.STOCHASTIC
    assert classify_power_family(-1.0, 1.0, 0.4, h).verdict \
        is Verdict.STOCHASTIC
    assert classify_power_family(-1.0, 1.0, 0.6, h).verdict \
        is Verdict.STRONGLY_STABLE


def test_decision_table_out_of_regime():
    h2 = _h_power(0.0)
    with pytest.raises(OutOfRegime):
        classify_power_family(-2.0, 1.0, 1.0, h2, "growth")
    with pytest.raises(OutOfRegime):
        classify_power_family(2.0, -1.0, 1.0, h2, "decay")
    with pytest.raises(OutOfRegime):
        classify_power_family(0.0, 0.0, -1.0, h2)
    with pytest.raises(ValueError):
        classify_power_family(0.0, 0.0, 1.0, h2, "sideways")


def _growth_spec():
    # g(x) = x, phi(x) = x, h = 2: embedded chain X_{n+1} = theta^{1/2} Z
    # with Z | y shifted exponential, E Z = y + 1
    return power_model("growth", alpha=1.0, beta=0.0, a=1.0, nu=0.0)


def test_embedded_kernel_regime_guard(pure_frag):
    with pytest.raises(OutOfRegime):
        embedded_kernel(pure_frag)
    with pytest.raises(OutOfRegime):
        embedded_kernel(power_model("decay", alpha=0.0, beta=-1.0))


def test_embedded_kernel_normalization():
    kern = embedded_kernel(_growth_spec())
    for y in (0.2, 1.0, 7.0):
        assert abs(kern.normalization(y) - 1.0) < 1e-6


def test_embedded_kernel_keeps_mass_below_lowest_panel():
    # nu = -1.5: the Gauss panels start at 1e-12 z, below which the kernel
    # holds (1e-12)^{nu+2} = 1e-6 of its mass; without it the mass read
    # 1 - 1.0e-6
    kern = embedded_kernel(power_model("growth", alpha=-1.0, beta=1.0,
                                       nu=-1.5))
    for y in (0.5, 1.0, 5.0):
        assert abs(kern.normalization(y) - 1.0) < 1e-12, y


def test_embedded_kernel_structure():
    # for y < x the y-dependence is the factor e^{Q(y)} only
    kern = embedded_kernel(_growth_spec())
    x = 5.0
    y1, y2 = 0.5, 2.0
    q1 = float(kern.spec.Q(np.array([y1]))[0])
    q2 = float(kern.spec.Q(np.array([y2]))[0])
    r = kern.k(x, y1) / kern.k(x, y2)
    assert abs(r - math.exp(q1 - q2)) < 1e-8 * r
    # cdf endpoints
    assert kern.cdf(1e-9, 1.0) < 1e-8
    assert abs(kern.cdf(1e6, 1.0) - 1.0) < 1e-6


def test_embedded_kernel_vs_chain():
    # one-step chain samples vs the kernel CDF, checked on a 0.01..0.99
    # quantile grid within a 3-sigma binomial band
    spec = _growth_spec()
    kern = embedded_kernel(spec)
    y = 1.0
    n = 4000
    _, xi1, status, _ = run_chains(spec, np.full(n, y), seed=9, n_max=1)
    assert np.all(status == 0)  # budget spent after one jump, paths alive
    rs = np.quantile(xi1, np.linspace(0.01, 0.99, 25))
    for r in rs:
        model = kern.cdf(float(r), y)
        emp = float(np.mean(xi1 <= r))
        band = 3.0 * math.sqrt(model * (1.0 - model) / n) + 1e-4
        assert abs(emp - model) <= band


def test_embedded_kernel_exact_on_linear_model():
    # Z = y + e is linear in e, so KV(y) = (2/3)(y + 1) and the mass are
    # exact up to rounding, also where Q = x rises fast past y
    kern = embedded_kernel(_growth_spec())
    for y in np.geomspace(0.1, 50.0, 9):
        assert abs(kern.normalization(y) - 1.0) < 1e-10, y
        kv = kern.integrate_against(lambda x: np.asarray(x, float), y)
        assert abs(kv / (2.0 / 3.0 * (y + 1.0)) - 1.0) < 1e-10, y


def test_embedded_kernel_cdf_at_large_y():
    # X_1 = theta^{1/2} Z with Z = 50 + e: P(X_1 <= r) = E min(1, (r/Z)^2)
    kern = embedded_kernel(_growth_spec())
    y = 50.0
    for r in (1.0, 20.0, 48.7, 50.0, 51.0, 53.0, 60.0):
        def f(e):
            return min(1.0, (r / (y + e)) ** 2) * math.exp(-e)
        cut = max(r - y, 0.0)
        want = quad(f, 0.0, cut, epsabs=1e-14)[0] + quad(
            f, cut, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(kern.cdf(r, y) - want) < 1e-10, r


def test_embedded_kernel_k_closed_form():
    # k(x, y) = 2 e^y (e^{-m}/m - E1(m)), m = max(x, y), for g = x, phi = x,
    # h = 2; k takes an array of x
    kern = embedded_kernel(_growth_spec())
    xs = np.array([0.3, 1.0, 2.0, 10.0, 40.0, 49.0, 60.0])
    for y in (1.0, 5.0, 50.0):
        m = np.maximum(xs, y)
        want = 2.0 * np.exp(y) * (np.exp(-m) / m - exp1(m))
        got = kern.k(xs, y)
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
        assert kern.k(xs[2], y) == got[2]


def test_embedded_kernel_bounded_Q_raises():
    # g = x, phi = 1/(1+x)^2: Q is bounded, so the chain can die; the kernel
    # raises the jump step's error instead of a dying chain's numbers
    spec = build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, g=lambda x: np.asarray(x, float)),
        RateSpec(phi=lambda x: 1.0 / (1.0 + np.asarray(x, float)) ** 2),
        PowerLawKernel(0.0))
    assert spec.divergence["Q"] == "failed"
    kern = embedded_kernel(spec)
    with pytest.raises(InfiniteHolding):
        kern.integrate_against(lambda x: np.asarray(x, float), 1.0)
    with pytest.raises(InfiniteHolding):
        kern.normalization(1.0)
    with pytest.raises(InfiniteHolding):
        kern.k(0.5, 1.0)
    with pytest.raises(InfiniteHolding):
        kern.cdf(0.5, 1.0)


def test_embedded_kernel_divergent_expectation():
    # g = 1, phi = 1/x: Z = y e^e, so E Z = inf and KV = inf for V = x; for
    # V = sqrt(x), P*V(z) = sqrt(z)/2 and KV(1) = E sqrt(Z)/2 = 1
    kern = embedded_kernel(power_model("growth", alpha=-1.0, beta=1.0,
                                       nu=-1.5))
    with pytest.raises(NonConvergent):
        kern.integrate_against(lambda x: np.asarray(x, float), 1.0)
    kv = kern.integrate_against(lambda x: np.sqrt(np.asarray(x, float)), 1.0)
    assert abs(kv - 1.0) < 1e-9
    # g = x, phi = 1e-3 x^0.01: Z = (Z_0^0.01 + 10 e)^100 leaves the float
    # range at the rule's last nodes, where _holding cannot place it
    kern = embedded_kernel(power_model("growth", alpha=0.01, beta=0.0,
                                       a=1e-3))
    with pytest.raises(NonConvergent):
        kern.normalization(1.0)


@pytest.mark.parametrize("method", ["cdf", "k", "normalization"])
@pytest.mark.parametrize("y", [0.0, -1.0, math.nan, math.inf])
def test_embedded_kernel_refuses_states_outside_domain(method, y):
    # unchecked, cdf and k returned numbers at y = 0 and y = -1 and nan at
    # y = nan, and normalization ended in a RuntimeWarning or NonConvergent
    kern = embedded_kernel(_growth_spec())
    call = {"cdf": lambda: kern.cdf(0.5, y),
            "k": lambda: kern.k(np.array([0.5, 2.0]), y),
            "normalization": lambda: kern.normalization(y)}[method]
    with pytest.raises(ValueError, match=r"\(0, inf\)"):
        call()


def test_lyapunov_check_linear_V():
    # KV(y) = (2/3)(y + 1): slope 2/3, so the fit passes
    kern = embedded_kernel(_growth_spec())
    ys = np.geomspace(0.1, 50.0, 9)
    c_hat, d_hat, passed, details = lyapunov_check(
        kern, lambda x: np.asarray(x, float), ys,
        r_probes=np.array([0.5, 2.0]))
    assert passed
    assert abs(c_hat - 2.0 / 3.0) < 0.02
    assert d_hat > 0
    assert np.all(details["L"] > 0)
    # the fitted bound actually dominates on the probes
    assert np.all(details["KV"] <= c_hat * details["V"] + d_hat + 1e-9)


def test_lyapunov_check_borderline_fails():
    # alpha = beta = 0 with V = sqrt(x): KV = 1.6 V exactly, no Lyapunov pair
    spec = power_model("growth", alpha=0.0, beta=0.0, a=1.0, nu=0.0)
    kern = embedded_kernel(spec)
    ys = np.geomspace(0.1, 50.0, 7)
    c_hat, _, passed, details = lyapunov_check(
        kern, lambda x: np.sqrt(np.asarray(x, float)), ys)
    assert not passed
    assert abs(details["slope_unconstrained"] - 1.6) < 1e-6


def test_lyapunov_check_rejects_degenerate_V():
    kern = embedded_kernel(_growth_spec())
    with pytest.raises(ValueError):
        lyapunov_check(kern, lambda x: np.zeros_like(np.asarray(x, float)),
                       np.geomspace(0.1, 10.0, 5))


def test_dual_pairing(pure_frag):
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    est = dual_pairing(pure_frag, 1.0, u, 200, 4000, seed=4)
    want, _ = quad(lambda x: (2.0 / 3.0) * (1.0 + x) ** -3.0 * x, 1.0, 2.0)
    assert abs(est.value - want) <= 3.0 * (est.std_error + 1e-3)
