"""Acceptance gate: one test per top-level criterion, each printing a
pass/fail line in the terminal summary (see conftest.ACCEPTANCE_LINES)."""

import math
import time

import numpy as np
from scipy import stats

import conftest
from conftest import aligned_grid, power_model
from pdmpfrag import (
    PowerLawKernel,
    TauOracle,
    Verdict,
    classify,
    classify_power_family,
    cumulative_rate,
    dual_pairing,
    embedded_kernel,
    estimate_survival_mass,
    exact_mass,
    flow,
    inverse_cumulative_rate,
    lyapunov_check,
    run_chains,
    tau_tail,
)
from pdmpfrag.density import (
    GridDensity,
    LogGrid,
    apply_B,
    apply_S,
    dyson_phillips,
    resolvent_A,
    resolvent_series,
)

PURE_FRAG = power_model("pure_jump", alpha=-1.0)  # phi = 1/x, h = 2
ORACLE = TauOracle(nu=0.0, gamma=1.0, a=1.0)


def _record(n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {n}: {verdict} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_gamma_explosion_law():
    # nu=0, gamma=1, a=1, x0=1: t_inf ~ Gamma(3); KS < 0.01 on 1e5 paths
    t0 = time.perf_counter()
    times, _, _, _ = run_chains(PURE_FRAG, np.full(100_000, 1.0), seed=1,
                                n_max=10_000)
    ks = stats.kstest(times[0], lambda q: 1.0 - tau_tail(ORACLE, q)).statistic
    dt = time.perf_counter() - t0
    _record(1, ks < 0.01 and dt < 60.0,
            f"KS={ks:.5f} < 0.01, {dt:.1f}s < 60s, 1e5 paths, n_max=1e4")


def test_criterion_2_exact_mass_decay():
    u0 = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    t0 = time.perf_counter()
    details = []
    ok = True
    for t in (0.25, 1.0, 4.0):
        want = exact_mass(ORACLE, t, u0)
        est = estimate_survival_mass(PURE_FRAG, u0, t, 100_000, 10_000,
                                     seed=2)
        mc_ok = abs(est.value - want) <= 3.0 * est.std_error
        res, tr = dyson_phillips(PURE_FRAG, t, u0, N=60,
                                 n_s=max(64, int(32 * t)))
        dy_rel = abs(res.total_mass - want) / want
        dy_ok = dy_rel < 0.01 and tr.converged
        ok = ok and mc_ok and dy_ok
        details.append(f"t={t:g}: mc {abs(est.value - want):.1e}"
                       f"<=3SE({3 * est.std_error:.1e}), dyson rel"
                       f" {dy_rel:.1e}<1%")
    dt = time.perf_counter() - t0
    _record(2, ok and dt < 240.0, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_3_honesty_bounded_rates():
    # phi = 1 in each regime: no mass loss, MC and grid routes
    t0 = time.perf_counter()
    grid = LogGrid(1e-8, 1e4, 384)
    u0 = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    details = []
    ok = True
    for name, spec in (
            ("pure_jump", power_model("pure_jump", alpha=0.0)),
            ("growth", power_model("growth", alpha=0.0, beta=1.0)),
            ("decay", power_model("decay", alpha=0.0, beta=-1.0))):
        est = estimate_survival_mass(spec, u0, 5.0, 20_000, 5_000, seed=3)
        mc_ok = abs(est.value - 1.0) <= 3.0 * est.std_error + 1e-12
        res, _ = dyson_phillips(spec, 5.0, u0, N=60, n_s=160)
        dy_ok = res.total_mass >= 0.999
        ok = ok and mc_ok and dy_ok
        details.append(f"{name}: mc={est.value:.5f}, dyson={res.total_mass:.5f}")
    dt = time.perf_counter() - t0
    _record(3, ok and dt < 60.0, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_4_resolvent_identities():
    # lam ||R u|| + ||B R u|| = ||u|| and the BR-norm formula, pure frag
    grid = LogGrid(1e-12, 1e2, 512)
    densities = [
        GridDensity.uniform_in_m(grid, 1.0, 2.0),
        GridDensity.uniform_in_m(grid, 1e-6, 1e-3),
        GridDensity.from_function(grid, lambda x: np.exp(-x)),
    ]
    phi = np.asarray(PURE_FRAG.phi(grid.nodes), dtype=float)
    worst = 0.0
    for u in densities:
        for lam in (0.5, 1.0, 2.0):
            r = resolvent_A(PURE_FRAG, lam, u)
            br = apply_B(PURE_FRAG, r)
            resid = abs(lam * r.total_mass + br.total_mass - u.total_mass)
            # ||BR u|| = int phi/(lam+phi) u dm on the diagonal resolvent
            norm_br = float(np.sum(phi / (lam + phi) * u.masses))
            resid2 = abs(br.total_mass - norm_br)
            worst = max(worst, resid / u.total_mass, resid2 / u.total_mass)
    _record(4, worst < 1e-8,
            f"max residual {worst:.2e} < 1e-8*||u||, lam in {{0.5,1,2}}, "
            "3 densities")


def test_criterion_5_decision_table():
    ss_kw = dict(lam_grid=(1e-1, 1e-3, 1e-5),
                 probe_grid=np.geomspace(1e-5, 10.0, 7))
    s_kw = dict(lam_grid=(1.0, 0.1, 0.01),
                probe_grid=np.geomspace(1e-3, 1e3, 7))
    points = [
        ("growth", 1.0, 0.0, 1.0, 0.0, s_kw),    # alpha+beta > 0
        ("growth", 0.0, 0.0, 1.0, 0.0, s_kw),    # alpha+beta = 0, beta = 0
        ("growth", -1.0, 1.0, 1.0, 0.0, s_kw),   # mu0 = -1/2 >= -1/a
        ("growth", -1.0, 1.0, 1.0, -1.5, ss_kw),  # mu0 = -2 < -1/a
        ("growth", 2.0, 0.5, 1.0, 0.0, s_kw),
        ("decay", 0.0, -1.0, 1.0, 0.0, s_kw),    # 0 <= alpha <= -beta
        ("decay", 0.5, -1.0, 1.0, 0.0, s_kw),
        ("decay", -0.5, -1.0, 1.0, 0.0, ss_kw),  # alpha < 0
    ]
    t0 = time.perf_counter()
    agree = 0
    ok = True
    for regime, alpha, beta, a, nu, kw in points:
        spec = power_model(regime, alpha=alpha, beta=beta, a=a, nu=nu)
        mc = classify(spec, budgets={"n_iter": 1000, "n_paths": 400},
                      seed=11, **kw)
        cf = classify_power_family(
            alpha, beta, a,
            lambda z, nu=nu: (nu + 2.0) * np.asarray(z, float) ** nu, regime)
        if mc.verdict is cf.verdict:
            agree += 1
        elif mc.verdict is not Verdict.INCONCLUSIVE:
            ok = False  # contradiction: the only forbidden outcome
    dt = time.perf_counter() - t0
    _record(5, ok and agree >= 8 and dt < 300.0,
            f"{agree}/8 points agree, 0 contradictions, {dt:.1f}s < 300s")


def test_criterion_6_embedded_chain():
    spec = power_model("growth", alpha=1.0, beta=0.0, a=1.0, nu=0.0)
    kern = embedded_kernel(spec)
    n = 100_000
    bound = 2.0 / math.sqrt(n)
    t0 = time.perf_counter()
    details = []
    ok = True
    for y in (0.5, 1.0, 3.0):
        _, xi1, _, _ = run_chains(spec, np.full(n, y), seed=13, n_max=1)
        xs = np.sort(xi1)
        rs = np.quantile(xs, np.linspace(0.0005, 0.9995, 1200))
        F = np.array([kern.cdf(float(r), y) for r in rs])
        ecdf = np.searchsorted(xs, rs, side="right") / n
        # discretized sup-distance plus the CDF gap between grid points
        ks = float(np.max(np.abs(ecdf - F))) + float(np.max(np.diff(F)))
        norm_ok = abs(kern.normalization(y) - 1.0) < 1e-6
        ok = ok and ks < bound and norm_ok
        details.append(f"y={y:g}: KS<={ks:.4f}")
    dt = time.perf_counter() - t0
    _record(6, ok and dt < 60.0,
            "; ".join(details) + f" (bound {bound:.4f}), norms to 1e-6, "
            f"{dt:.1f}s")


def test_criterion_7_lyapunov_constant():
    # g=x, phi=x, h=2: KV(y) = (2/3)(y+1), c = 2/3
    kern = embedded_kernel(power_model("growth", alpha=1.0, beta=0.0))
    c_hat, _, passed, _ = lyapunov_check(
        kern, lambda x: np.asarray(x, float), np.geomspace(0.1, 50.0, 9),
        r_probes=np.array([0.5, 2.0]))
    in_window = abs(c_hat - 2.0 / 3.0) <= 0.02
    # borderline phi = g/x (alpha = beta = 0): no Lyapunov pair exists
    kern_b = embedded_kernel(power_model("growth", alpha=0.0, beta=0.0))
    _, _, passed_b, det_b = lyapunov_check(
        kern_b, lambda x: np.sqrt(np.asarray(x, float)),
        np.geomspace(0.1, 50.0, 7))
    _record(7, passed and in_window and not passed_b,
            f"c_hat={c_hat:.4f} in [0.6467, 0.6867]; borderline slope "
            f"{det_b['slope_unconstrained']:.3f} rejected")


def test_criterion_8_dual_primal_identity():
    lam = 1.0
    grid = LogGrid(2.0 ** -40, 2.0 ** 7, 752)  # edges aligned at 1 and 2
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    t0 = time.perf_counter()
    rc, _ = resolvent_series(PURE_FRAG, lam, u, N=80)
    primal_loss = u.total_mass - lam * rc.total_mass
    est = dual_pairing(PURE_FRAG, lam, u, 300, 40_000, seed=21)
    quad_tol = 1e-3
    diff = abs(primal_loss - est.value)
    tol = 3.0 * (est.std_error + quad_tol)
    dt = time.perf_counter() - t0
    _record(8, diff < tol and dt < 120.0,
            f"|{primal_loss:.5f} - {est.value:.5f}| = {diff:.1e} < {tol:.1e}, "
            f"{dt:.1f}s")


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n_cases = 1000
    from pdmpfrag.monotone import gauss_panels

    # (a) kernel mass normalization to 1e-10 relative
    for _ in range(n_cases):
        nu = rng.uniform(-0.9, 4.0)
        y = rng.uniform(0.1, 50.0)
        kern = PowerLawKernel(nu)
        edges = np.geomspace(y * 1e-12, y, 2049)
        val = float(np.sum(gauss_panels(lambda x: kern.b(x, y) * x,
                                        edges[:-1], edges[1:])))
        assert abs(val - y) < 1e-10 * y, (nu, y)

    # (b) sampling-CDF consistency (exact inverse-CDF galois)
    for _ in range(n_cases):
        nu = rng.uniform(-0.9, 4.0)
        y = rng.uniform(0.1, 50.0)
        q = rng.uniform(1e-6, 1.0 - 1e-6)
        kern = PowerLawKernel(nu)
        x = float(kern.sample(q, y))
        assert abs(float(kern.fragment_cdf(y, np.array([x]))[0]) - q) < 1e-9

    # (c) semigroup law of the semiflow pi
    for _ in range(n_cases):
        if rng.random() < 0.5:
            beta = rng.uniform(1e-3, 2.0)
            spec = power_model("growth", alpha=rng.uniform(0, 2) - beta,
                               beta=beta)
        else:
            beta = rng.uniform(-2.0, -0.1)
            spec = power_model("decay", alpha=-rng.uniform(0, 2) - beta,
                               beta=beta)
        x = rng.uniform(0.1, 10.0)
        t, s = rng.uniform(0.0, 3.0, 2)
        rhs = flow(spec, t + s, x)
        assert abs(flow(spec, t, flow(spec, s, x)) - rhs) < 1e-9 * rhs

    # (d) galois property of the holding-time quantile phi_x^{<-}
    for _ in range(n_cases):
        beta = rng.uniform(0.1, 2.0)
        spec = power_model("growth", alpha=rng.uniform(0.1, 2.0) - beta,
                           beta=beta)
        x = rng.uniform(0.1, 10.0)
        q = rng.uniform(1e-4, 5.0)
        t = inverse_cumulative_rate(spec, x, q)
        assert abs(cumulative_rate(spec, x, t) - q) < 1e-8 * (1.0 + q)

    # (e) substochasticity and domination of the density module
    grid = LogGrid(1e-4, 1e2, 64)
    fine = LogGrid(1e-4, 1e2, 256)
    specs = [PURE_FRAG, power_model("pure_jump", alpha=0.0),
             power_model("growth", alpha=0.0, beta=1.0),
             power_model("decay", alpha=0.0, beta=-1.0)]
    for _ in range(n_cases):
        spec = specs[rng.integers(len(specs))]
        lo = rng.uniform(0.05, 5.0)
        u = GridDensity.uniform_in_m(grid, lo, lo * rng.uniform(1.1, 4.0))
        t = rng.uniform(0.0, 3.0)
        free = apply_S(spec, t, u)
        assert free.total_mass <= u.total_mass + 1e-9
        lam = rng.uniform(1e-2, 1e2)
        uf = GridDensity.uniform_in_m(fine, lo, 2.0 * lo)
        r = resolvent_A(spec, lam, uf)
        assert lam * r.total_mass <= uf.total_mass * (1.0 + 1e-6 + 2e-4 * lam)
        total, _ = dyson_phillips(spec, t, u, N=2, n_s=6)
        assert np.all(total.masses >= free.masses - 1e-12)

    dt = time.perf_counter() - t0
    _record(9, dt < 120.0,
            f"5 invariant families x {n_cases} cases, {dt:.1f}s < 120s")
