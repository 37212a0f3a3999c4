"""Stochastic vs strongly stable: f_lambda probes, embedded chain, Lyapunov.

The semigroup is stochastic (honest) iff f_lambda = E_x e^{-lambda t_inf}
vanishes a.e., and strongly stable iff f_lambda -> 1 a.e. as lambda -> 0.
f_lambda is estimated by Monte Carlo over the jump chain (the dual-iterate
identity E_x e^{-lambda t_n}), never by adjoint iteration on a truncated
grid, which loses mass spuriously; a grid dual iteration is kept only as a
cross-check in the pure-jump regime.  The a.e. statements cannot be
certified numerically, so verdicts use thresholds plus Inconclusive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import Regime
from .density import _BOperator
from .errors import NonConvergent, OutOfRegime
from .monotone import endpoint_integral, gauss_panels
from .oracles import mu0
from .simulate import _ABSORBED, Estimate, _stratified_starts, run_chains

EPS_S = 0.02       # stochastic: all upper CIs below this at the smallest lambda
EPS_SS = 0.05      # strongly stable: all lower CIs above 1 - this
EPS_CONV = 0.01    # strongly stable additionally needs converged iterates
DEFAULT_LAMBDAS = (1.0, 0.1, 0.01)
LYAPUNOV_C_MAX = 0.99  # Lyapunov fit demands c < 1 with margin


class Verdict(enum.Enum):
    STOCHASTIC = "Stochastic"
    STRONGLY_STABLE = "StronglyStable"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class Classification:
    verdict: Verdict
    # dicts: lam, x, f_hat, se, n_iter, half_gap
    evidence: list = field(default_factory=list)
    method: str = "MonteCarloLaplace"
    notes: str = ""
    # the thresholds and the extremes of the evidence that decided the
    # verdict; empty for the closed-form table
    decision: dict = field(default_factory=dict)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("lambda,x,f_hat,se,n_iter,half_gap\n")
            for row in self.evidence:
                fh.write("{lam:.10g},{x:.10g},{f_hat:.10g},{se:.10g},"
                         "{n_iter},{half_gap:.10g}\n".format(**row))


def _laplace_weights(spec, lams, x0s, n_iter, *, seed, workers):
    """w[l, k, p] = e^{-lams[l] t_n} of path p at n = n_iter//2, n_iter - 1
    and n_iter (k = 0, 1, 2), from one ``run_chains`` batch over ``x0s``.

    Path p keeps path id p, so its stream does not depend on the lambdas.
    Paths are parked past 745 / min(lams), where every weight underflows.
    A path absorbed at 0 by its n-th step has t_n = inf and weighs 0 from
    that checkpoint on.
    """
    lams = np.asarray(lams, dtype=float)
    if np.min(lams) <= 0 or n_iter < 1:
        raise ValueError("need lam > 0 and n_iter >= 1")
    cps = (max(1, n_iter // 2), max(1, n_iter - 1), n_iter)
    times, _, status, cp_list = run_chains(
        spec, x0s, seed=seed, n_max=n_iter, checkpoints=cps,
        t_stop=745.0 / np.min(lams), workers=workers)
    times = times[[cp_list.index(c) for c in cps]]
    w = np.exp(-lams[:, None, None] * times)
    # absorbed at 0: the checkpoints from the absorbing step on repeat the
    # absorption time; earlier ones lie below it
    w[:, (status == _ABSORBED) & (times == times[-1])] = 0.0
    return w


def _probe_estimates(w, lam, probes, n_iter, n_paths):
    """One Estimate per probe from the weights ``w[k, p]`` of one lambda,
    probe i owning paths i*n_paths .. (i+1)*n_paths - 1."""
    out = []
    for i, x0 in enumerate(probes):
        w_half, w_prev, w_full = w[:, i * n_paths:(i + 1) * n_paths]
        out.append(Estimate(
            float(np.mean(w_full)),
            float(np.std(w_full, ddof=1) / math.sqrt(n_paths)), n_paths, {
                "x": float(x0), "lambda": float(lam), "n_iter": int(n_iter),
                "decrement": float(np.mean(w_prev - w_full)),
                "half_gap": float(np.mean(w_half - w_full)),
            }))
    return out


def f_lambda_dual(spec, lam, probes, n_iter, n_paths=400, *, seed=0,
                  workers=1):
    """Per-probe dual iterates f_hat(x) = mean of e^{-lambda t_{n_iter}}.

    Exact per path: jump times are sampled exactly and e^{-lambda t_n} is
    evaluated on them.  A path absorbed at 0 by its n-th step has t_n = inf
    and contributes 0 at that checkpoint.  Returns one Estimate per probe;
    diagnostics carry the last-step decrement and the half-budget
    convergence gap.
    """
    probes = np.asarray(probes, dtype=float)
    w = _laplace_weights(spec, [lam], np.repeat(probes, n_paths), n_iter,
                         seed=seed, workers=workers)
    return _probe_estimates(w[0], lam, probes, n_iter, n_paths)


def f_lambda_grid(spec, lam, grid, n_iter):
    """Grid cross-check of the dual iterate (B R(lambda,A))^{*n} 1 at the nodes.

    Valid only in the pure-jump regime, where R(lambda, A) is diagonal; the
    sub-grid bucket continues with the value at the smallest node (f_lambda
    is continuous at 0+ for fragmentation).
    """
    if spec.regime is not Regime.PURE_JUMP:
        raise OutOfRegime("grid dual iteration is a pure-jump cross-check only")
    b_op = _BOperator(spec, grid)
    phi = np.asarray(spec.phi(grid.nodes), dtype=float)
    damp = phi / (lam + phi)
    f = np.ones(grid.n_cells)
    for _ in range(n_iter):
        f = damp * (b_op.frac.T @ f + b_op.sub_row * f[0])
    return f


def dual_pairing(spec, lam, u, n_iter, n_paths, *, seed=0, workers=1):
    """Monte Carlo estimate of <f_lambda, u> = int f_lambda(x) u(x) x dx.

    Initial states are drawn from u by stratified inverse-CDF sampling; the
    estimate is the u-average of e^{-lambda t_{n_iter}} (an upper bound,
    decreasing to the pairing as n_iter grows).
    """
    x0s = _stratified_starts(u, n_paths, seed, "pairing")
    w = _laplace_weights(spec, [lam], x0s, n_iter, seed=seed,
                         workers=workers)[0, -1]
    val = float(np.mean(w)) * u.grid_mass
    se = float(np.std(w, ddof=1) / math.sqrt(n_paths)) * u.grid_mass
    return Estimate(val, se, n_paths, {"lambda": float(lam),
                                       "n_iter": int(n_iter)})


def classify(spec, lam_grid=DEFAULT_LAMBDAS, probe_grid=None, budgets=None,
             *, seed=0, workers=1):
    """Threshold classification from the f_lambda evidence table.

    Stochastic: every upper CI at the smallest lambda is below EPS_S (the
    iterate bounds f_lambda from above, so truncation cannot fake this).
    StronglyStable: every lower CI at the smallest lambda exceeds 1 - EPS_SS
    AND the iterates have converged (half-budget gap below EPS_CONV), which
    guards against truncation masquerading as explosion.  Otherwise
    Inconclusive.  The smallest-lambda rule is a policy standing in for the
    liminf over lambda -> 0; it is recorded in the notes.  Every cell of
    the table is read off one batch of paths, n_paths per probe, shared by
    all lambdas.
    """
    lam_grid = sorted(set(float(l) for l in lam_grid), reverse=True)
    if lam_grid[-1] <= 0:
        raise ValueError("lambdas must be positive")
    if probe_grid is None:
        probe_grid = np.geomspace(1e-3, 1e3, 7)
    probe_grid = np.asarray(probe_grid, dtype=float)
    budgets = dict(budgets or {})
    n_paths = int(budgets.get("n_paths", 400))
    n_iter = int(budgets.get("n_iter", 400))

    w = _laplace_weights(spec, lam_grid, np.repeat(probe_grid, n_paths),
                         n_iter, seed=seed, workers=workers)
    evidence = []
    for lam, w_lam in zip(lam_grid, w):
        last = _probe_estimates(w_lam, lam, probe_grid, n_iter, n_paths)
        evidence += [{"lam": e.diagnostics["lambda"], "x": e.diagnostics["x"],
                      "f_hat": e.value, "se": e.std_error, "n_iter": n_iter,
                      "half_gap": e.diagnostics["half_gap"]} for e in last]
    decision = {
        "eps_s": EPS_S, "eps_ss": EPS_SS, "eps_conv": EPS_CONV,
        "max_upper_ci": max(e.value + 3.0 * e.std_error for e in last),
        "min_lower_ci": min(e.value - 3.0 * e.std_error for e in last),
        "max_half_gap": max(e.diagnostics["half_gap"] for e in last)}
    if decision["max_upper_ci"] < EPS_S:
        verdict = Verdict.STOCHASTIC
    elif decision["min_lower_ci"] > 1.0 - EPS_SS and \
            decision["max_half_gap"] < EPS_CONV:
        verdict = Verdict.STRONGLY_STABLE
    else:
        verdict = Verdict.INCONCLUSIVE
    note = (f"smallest-lambda policy: verdict from lambda={lam_grid[-1]:g}; "
            f"eps_s={EPS_S:g}, eps_ss={EPS_SS:g}, eps_conv={EPS_CONV:g}")
    return Classification(verdict, evidence, "MonteCarloLaplace", note,
                          decision)


# -- embedded jump chain ------------------------------------------------------

@dataclass
class EmbeddedKernel:
    """Transition kernel of the post-jump chain X(t_n) w.r.t. m(dx) = x dx.

    k(x, y) = int_{max(x,y)}^inf b(x, z) phi(z) / (z g(z)) e^{Q(y)-Q(z)} dz.
    All integrals against k swap the order of integration, which turns the
    inner x-integral into the kernel's own mass condition.
    """

    spec: object

    def _w(self, z, qy):
        z = np.asarray(z, dtype=float)
        phi = np.asarray(self.spec.phi(z), dtype=float)
        g = np.asarray(self.spec.g(z), dtype=float)
        return phi / (z * g) * np.exp(np.minimum(qy - np.asarray(
            self.spec.Q(z), dtype=float), 0.0))

    def k(self, x, y):
        """Pointwise kernel value by z-quadrature on [max(x,y), inf)."""
        qy = float(self.spec.Q(np.array([float(y)]))[0])
        lo = max(float(x), float(y))

        def f(z):
            return self.spec.kernel.b(float(x), z) * self._w(z, qy)

        val, ok = endpoint_integral(f, lo, "inf")
        if not ok:
            raise NonConvergent("z-quadrature for k(x,y) failed; Q may be bounded")
        return val

    def cdf(self, r, y):
        """int_0^r k(x, y) x dx via the swapped order (exact inner CDF)."""
        qy = float(self.spec.Q(np.array([float(y)]))[0])
        kern = self.spec.kernel
        r = float(r)

        def f(z):
            z = np.asarray(z, dtype=float)
            inner = kern.ratio_cdf(z, np.clip(r / z, 0.0, 1.0)) * z
            return self._w(z, qy) * inner

        lo = float(y)
        val = 0.0
        if r > lo:
            # the integrand has a kink at z = r (every fragment of a parent
            # z <= r lies below r); integrate the smooth piece separately
            edges = np.geomspace(lo, r, 129)
            val += float(np.sum(gauss_panels(f, edges[:-1], edges[1:])))
            lo = r
        tail, ok = endpoint_integral(f, lo, "inf")
        if not ok:
            raise NonConvergent("z-quadrature for the chain CDF failed")
        return val + tail

    def integrate_against(self, F, y):
        """int F(x) k(x, y) x dx, F >= 0, by the swapped double quadrature
        (the inner x-integral over [1e-12 z, z])."""
        qy = float(self.spec.Q(np.array([float(y)]))[0])
        kern = self.spec.kernel

        def inner(z_scalar):
            edges = np.geomspace(z_scalar * 1e-12, z_scalar, 49)
            vals = gauss_panels(
                lambda x: kern.b(x, z_scalar) * np.asarray(F(x), float) * x,
                edges[:-1], edges[1:])
            return float(np.sum(vals))

        def f(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            inn = np.array([inner(zi) for zi in z])
            return self._w(z, qy) * inn

        val, ok = endpoint_integral(f, float(y), "inf")
        if not ok:
            raise NonConvergent("z-quadrature for the embedded kernel failed")
        return val

    def normalization(self, y):
        """int k(x, y) x dx; equals 1 when the chain cannot die."""
        return self.integrate_against(lambda x: np.ones_like(x), y)


def embedded_kernel(spec) -> EmbeddedKernel:
    """Embedded-chain kernel of a growth model with a fragmentation kernel."""
    if spec.regime is not Regime.GROWTH:
        raise OutOfRegime("the embedded-kernel formula is for the growth regime")
    if spec.kernel is None:
        raise OutOfRegime("spec has no jump kernel")
    return EmbeddedKernel(spec)


def lyapunov_check(kern: EmbeddedKernel, V, y_probes, r_probes=None):
    """Fit KV(y) <= c V(y) + d over the probes; pass needs c <= 0.99.

    Returns (c_hat, d_hat, passed, details).  c_hat is the least-squares
    slope (clipped into [0, 0.99]); d_hat the smallest intercept covering
    every probe at that slope; passed is False when the unconstrained slope
    exceeds the margin.  details carries KV values and the lower-bound
    masses L(r) = int inf_{0<y<=r} k(x,y) m(dx) on the r-probe grid.
    """
    y_probes = np.asarray(y_probes, dtype=float)
    v = np.asarray(V(y_probes), dtype=float)
    if np.any(v < 0) or not (v[-1] > v[0] and v[-1] > 0):
        raise ValueError("V must be nonnegative and diverge at infinity")
    kv = np.array([kern.integrate_against(V, y) for y in y_probes])
    A = np.column_stack([v, np.ones_like(v)])
    (c0, _d0), *_ = np.linalg.lstsq(A, kv, rcond=None)
    passed = bool(np.isfinite(c0)) and c0 <= LYAPUNOV_C_MAX
    c_hat = float(np.clip(c0, 0.0, LYAPUNOV_C_MAX))
    d_hat = float(np.max(kv - c_hat * v))
    details = {"y": y_probes, "V": v, "KV": kv, "slope_unconstrained": float(c0)}
    if r_probes is not None:
        # positivity of the minorant: crude midpoint x-quadrature suffices
        lows = []
        for r in np.asarray(r_probes, dtype=float):
            ys = np.geomspace(r * 1e-3, r, 6)
            xs_edges = np.geomspace(r * 1e-4, r * 1e2, 41)
            xs = np.sqrt(xs_edges[:-1] * xs_edges[1:])
            kmin = np.array([min(kern.k(x, y) for y in ys) for x in xs])
            mw = 0.5 * (xs_edges[1:] ** 2 - xs_edges[:-1] ** 2)
            lows.append(float(kmin @ mw))
        details["r"] = np.asarray(r_probes, dtype=float)
        details["L"] = np.array(lows)
    return c_hat, d_hat, passed, details


# -- closed-form decision table ------------------------------------------------

def classify_power_family(alpha, beta, a, h, regime=None) -> Classification:
    """Decision table for g(x) = x^{1-beta}, phi(x) = a x^alpha, kernel h.

    Growth (beta >= 0, needs alpha+beta >= 0): stochastic when alpha+beta > 0,
    or alpha+beta = 0 with beta = 0 or mu_0 >= -1/a; strongly stable when
    alpha+beta = 0, beta > 0 and mu_0 < -1/a, with
    mu_0 = int_0^1 log(z) h(z) z dz.  Decay (beta <= 0, needs
    alpha+beta <= 0): stochastic when 0 <= alpha <= -beta, strongly stable
    when alpha < 0.  Raises OutOfRegime when the rate-divergence conditions
    fail for (alpha, beta).
    """
    alpha, beta, a = float(alpha), float(beta), float(a)
    if a <= 0:
        raise OutOfRegime("need a > 0")
    if regime is None:
        regime = "growth" if (beta > 0 or (beta == 0 and alpha >= 0)) else "decay"
    if regime not in ("growth", "decay"):
        raise ValueError("regime must be 'growth' or 'decay'")
    m0 = None
    if regime == "growth":
        if beta < 0 or alpha + beta < 0:
            raise OutOfRegime("growth regime needs beta >= 0 and alpha+beta >= 0")
        if alpha + beta > 0 or beta == 0:
            verdict = Verdict.STOCHASTIC
        else:
            m0 = mu0(h)
            verdict = (Verdict.STOCHASTIC if m0 >= -1.0 / a
                       else Verdict.STRONGLY_STABLE)
    else:
        if beta > 0 or alpha + beta > 0:
            raise OutOfRegime("decay regime needs beta <= 0 and alpha+beta <= 0")
        if 0 <= alpha <= -beta:
            verdict = Verdict.STOCHASTIC
        elif alpha < 0:
            verdict = Verdict.STRONGLY_STABLE
        else:
            raise OutOfRegime("decay table covers alpha <= -beta only")
    note = (f"closed-form table: regime={regime}, alpha={alpha:g}, "
            f"beta={beta:g}, a={a:g}" +
            ("" if m0 is None else f", mu0={m0:.6g}"))
    return Classification(Verdict(verdict), [], "ClosedFormTable", note)
