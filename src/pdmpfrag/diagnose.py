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

from .characteristics import Regime, _check_states, _holding
from .density import LogGrid, _BOperator
from .errors import NonConvergent, OutOfRegime, _count
from .monotone import gauss_panels
from .oracles import mu0
from .simulate import _ABSORBED, Estimate, _stratified_starts, run_chains

EPS_S = 0.02       # stochastic: all upper CIs below this at the smallest lambda
EPS_SS = 0.05      # strongly stable: all lower CIs above 1 - this
EPS_CONV = 0.01    # strongly stable additionally needs converged iterates
DEFAULT_LAMBDAS = (1.0, 0.1, 0.01)
LYAPUNOV_C_MAX = 0.99  # Lyapunov fit demands c < 1 with margin
# EmbeddedKernel's rule for E F(e), e ~ Exp(1); a sum whose three largest-node
# terms carry more than _TAIL_SHARE of it is declared divergent
_LAG_X, _LAG_W = np.polynomial.laguerre.laggauss(64)
_TAIL_SHARE = 1e-6


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


def _laplace_table(spec, lams, x0s, n_paths, n_iter, *, seed):
    """(f_hat, se, decrement, half_gap), each (len(lams), len(x0s)), of the
    weights e^{-lams[l] t_n} at n = n_iter//2, n_iter - 1 and n_iter, from
    one ``run_chains`` batch.  A row of ``x0s``, one start run n_paths times
    or n_paths starts, is a group: f_hat and se are the mean and standard
    error of its last weights, decrement and half_gap the means of their
    drop from the previous and the half-budget checkpoint.

    Path p keeps path id p, so its stream does not depend on the lambdas.
    Paths are parked past 745 / min(lams), where every weight underflows.
    The counts come checked: n_paths >= 2 (a standard error takes two
    paths) and n_iter >= 1.
    """
    lams = np.asarray(lams, dtype=float)
    if not (lams.size and np.all((lams > 0) & (lams < np.inf))):
        raise ValueError(f"need finite lambdas > 0, got {lams.tolist()}")
    cps = (max(1, n_iter // 2), max(1, n_iter - 1), n_iter)
    times, _, status, cp_list = run_chains(
        spec, np.broadcast_to(x0s, (len(x0s), n_paths)).ravel(), seed=seed,
        n_max=n_iter, checkpoints=cps, t_stop=745.0 / np.min(lams))
    times = times[[cp_list.index(c) for c in cps]]
    # a path absorbed at 0 by its n-th step has t_n = inf: the checkpoints
    # from that step on repeat the absorption time, earlier ones lie below it
    times[(status == _ABSORBED) & (times == times[-1])] = np.inf
    w_half, w_prev, w_full = np.exp(-lams[:, None, None]
                                    * times.reshape(3, 1, -1, n_paths))
    return (np.mean(w_full, axis=-1),
            np.std(w_full, axis=-1, ddof=1) / math.sqrt(n_paths),
            np.mean(w_prev - w_full, axis=-1),
            np.mean(w_half - w_full, axis=-1))


def f_lambda_dual(spec, lam, probes, n_iter, n_paths=400, *, seed=0):
    """Per-probe dual iterates f_hat(x) = mean of e^{-lambda t_{n_iter}}.

    Exact per path: jump times are sampled exactly and e^{-lambda t_n} is
    evaluated on them.  A path absorbed at 0 by its n-th step has t_n = inf
    and contributes 0 at that checkpoint.  Returns one Estimate per probe;
    diagnostics carry the last-step decrement and the half-budget
    convergence gap.
    """
    probes = np.asarray(probes, dtype=float)
    n_paths, n_iter = _count(n_paths, "n_paths", 2), _count(n_iter, "n_iter", 1)
    f_hat, se, dec, gap = _laplace_table(
        spec, [lam], probes.reshape(-1, 1), n_paths, n_iter, seed=seed)
    return [Estimate(float(f_hat[0, i]), float(se[0, i]), n_paths, {
        "x": float(x0), "lambda": float(lam), "n_iter": n_iter,
        "decrement": float(dec[0, i]), "half_gap": float(gap[0, i])})
        for i, x0 in enumerate(probes)]


def f_lambda_grid(spec, lam, grid, n_iter):
    """Grid cross-check of the dual iterate (B R(lambda,A))^{*n} 1 at the nodes.

    Valid only in the pure-jump regime, where R(lambda, A) is diagonal; the
    sub-grid bucket continues with the value at the smallest node (f_lambda
    is continuous at 0+ for fragmentation).
    """
    if spec.regime is not Regime.PURE_JUMP:
        raise OutOfRegime("grid dual iteration is a pure-jump cross-check only")
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must lie in (0, inf), got {lam}")
    n_iter = _count(n_iter, "n_iter")
    b_op = _BOperator(spec, grid)
    phi = np.asarray(spec.phi(grid.nodes), dtype=float)
    damp = phi / (lam + phi)
    f = np.ones(grid.n_cells)
    for _ in range(n_iter):
        f = damp * b_op.adjoint(f)
    return f


def dual_pairing(spec, lam, u, n_iter, n_paths, *, seed=0):
    """Monte Carlo estimate of <f_lambda, u> = int f_lambda(x) u(x) x dx.

    Initial states are drawn from u, which must have no out-of-grid mass, by
    stratified inverse-CDF sampling; the estimate is the u-average of
    e^{-lambda t_{n_iter}} (an upper bound, decreasing to the pairing as
    n_iter grows).
    """
    n_paths, n_iter = _count(n_paths, "n_paths", 2), _count(n_iter, "n_iter", 1)
    x0s = _stratified_starts(u, n_paths, seed, "pairing")
    f_hat, se, _, _ = _laplace_table(spec, [lam], x0s[None], n_paths,
                                     n_iter, seed=seed)
    return Estimate(float(f_hat[0, 0]) * u.grid_mass,
                    float(se[0, 0]) * u.grid_mass, n_paths,
                    {"lambda": float(lam), "n_iter": n_iter})


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
    all lambdas.  ``workers`` is ignored.
    """
    lam_grid = sorted(set(float(l) for l in lam_grid), reverse=True)
    if probe_grid is None:
        probe_grid = np.geomspace(1e-3, 1e3, 7)
    probe_grid = np.asarray(probe_grid, dtype=float)
    if probe_grid.size == 0:
        raise ValueError("need at least one probe")
    budgets = {"n_iter": 400, "n_paths": 400, **(budgets or {})}
    unknown = sorted(map(str, set(budgets) - {"n_iter", "n_paths"}))
    if unknown:
        raise ValueError(f"unknown budgets {unknown}; allowed: n_iter, n_paths")
    n_paths = _count(budgets["n_paths"], "n_paths", 2)
    n_iter = _count(budgets["n_iter"], "n_iter", 1)
    f_hat, se, _, gap = _laplace_table(
        spec, lam_grid, probe_grid.reshape(-1, 1), n_paths, n_iter, seed=seed)
    evidence = [{"lam": lam, "x": float(x), "f_hat": float(f_hat[j, i]),
                 "se": float(se[j, i]), "n_iter": n_iter,
                 "half_gap": float(gap[j, i])}
                for j, lam in enumerate(lam_grid)
                for i, x in enumerate(probe_grid)]
    decision = {
        "eps_s": EPS_S, "eps_ss": EPS_SS, "eps_conv": EPS_CONV,
        "max_upper_ci": float(np.max(f_hat[-1] + 3.0 * se[-1])),
        "min_lower_ci": float(np.min(f_hat[-1] - 3.0 * se[-1])),
        "max_half_gap": float(np.max(gap[-1]))}
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

    k(x, y) = int_{max(x,y)}^inf b(x, z) phi(z) / (z g(z)) e^{Q(y)-Q(z)} dz
    is one fragmentation of the pre-jump position Z = Q^{<-}(Q(y) + e),
    e ~ Exp(1), taken from the jump step's rule ``_holding``.  Each method is
    one expectation E_y[F(Z); Z > s] = e^{Q(y)-Q(s)} E F(Q^{<-}(Q(s) + e))
    by a fixed 64-node Gauss-Laguerre rule, started at the kink s >= y.  On
    g = x, phi = x, h = 2 it is within 5e-14 of KV(y) = (2/3)(y + 1), V = x,
    for y in [0.1, 50], and within 2e-15 of the exact ``cdf`` and ``k`` at
    y = 50, 3e-8 at y = 0.5 (the error grows as s nears the integrands'
    singularity at z = 0).  A bounded Q raises ``InfiniteHolding``, an F too
    large at the rule's last nodes (E F(Z) may be infinite) ``NonConvergent``.
    """

    spec: object

    def _expect(self, F, y, s):
        """(Q(s) - Q(y), E_y[F(Z); Z > s]) for starts ``s >= y``; ``F`` maps
        the (len(s), nodes) array of pre-jump positions to values."""
        _check_states(y)
        n = len(_LAG_X)
        dt, z, _ = _holding(self.spec, np.repeat(s, n),
                            np.tile(_LAG_X, len(s)))
        terms = _LAG_W * F(z.reshape(len(s), n))
        tail = np.abs(terms[:, -3:]).sum(axis=1)
        # dt is nan where a pre-jump position left the float range
        if np.isnan(dt).any() or np.any(
                tail > _TAIL_SHARE * np.abs(terms).sum(axis=1)):
            raise NonConvergent("Gauss-Laguerre expectation over the pre-jump "
                                "position does not converge")
        q = self.spec.Q(np.append(s, y))
        gap = q[:-1] - q[-1]
        return gap, np.exp(-gap) * terms.sum(axis=1)

    def k(self, x, y):
        """k(x, y) = E_y[b(x, Z)/Z; Z >= x], elementwise over an array x."""
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1)
        _, val = self._expect(lambda z: self.spec.kernel.b(xs[:, None], z) / z,
                              y, np.maximum(xs, y))
        return val.reshape(x.shape)[()]

    def cdf(self, r, y):
        """int_0^r k(x, y) x dx = P(Z <= r) + E_y[H_Z(r/Z); Z > r]."""
        r, y = float(r), float(y)
        gap, tail = self._expect(
            lambda z: self.spec.kernel.fragment_cdf(z, r), y,
            np.array([max(r, y)]))
        return float(-np.expm1(-gap[0]) + tail[0])

    def integrate_against(self, F, y):
        """int F(x) k(x, y) x dx = E_y (P*F)(Z), F >= 0, where
        (P*F)(z) = int_0^z F(x) b(x, z) x dx / z: by Gauss panels over
        [1e-12 z, z], and below as the kernel's mass there, from its
        ``fragment_cdf``, times F at 1e-12 z (exact for constant F)."""
        kern = self.spec.kernel

        def pf(z):
            zc = z.reshape(-1, 1)
            edges = zc * np.geomspace(1e-12, 1.0, 49)

            def f(x):
                x = x.reshape(len(zc), -1)
                return kern.b(x, zc) * np.asarray(F(x), dtype=float) * x

            inner = gauss_panels(f, edges[:, :-1], edges[:, 1:]).sum(axis=1)
            low = edges[:, :1]
            below = kern.fragment_cdf(zc, low) * np.asarray(F(low), float)
            return inner.reshape(z.shape) / z + below.reshape(z.shape)

        return float(self._expect(pf, y, np.array([y], dtype=float))[1][0])

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
            grid = LogGrid(r * 1e-4, r * 1e2, 40)  # refuses r <= 0 and nan
            ys = np.geomspace(r * 1e-3, r, 6)
            kmin = np.min([kern.k(grid.nodes, y) for y in ys], axis=0)
            lows.append(float(kmin @ grid.m_weights))
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
    if not (math.isfinite(alpha) and math.isfinite(beta) and 0 < a < math.inf):
        raise OutOfRegime("need finite alpha, beta and a > 0")
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
