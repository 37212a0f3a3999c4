"""Monte Carlo engine for the minimal PDMP.

Jump chains are sampled exactly: holding times via the generalized inverse
of the cumulative rate, pre-jump positions directly through Q (never by
composing the flow with the holding time), daughter sizes through the
kernel's inverse CDF.  One vectorized step, ``_jump``, does this for a batch
of paths: ``run_chains`` drives it over many paths and records checkpoints,
``simulate_chain`` runs it on one path and records every jump.  Randomness
is counter-based (Philox keyed by master seed and path index) so paths are
independent and reproducible for any worker count.  Explosion is never
detected, only bracketed: estimators expose their truncation sensitivity.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .characteristics import Regime
from .errors import HorizonExceeded, InfiniteHolding, NotADensity
from .kernels import _clamp_q

DEFAULT_N_MAX = 10_000
DEFAULT_T_MAX = 1_000.0

CEMETERY = object()  # sentinel returned by state_at past a possible explosion


class TrajectoryStatus(enum.Enum):
    ALIVE_AT_HORIZON = "alive_at_horizon"
    EXHAUSTED_JUMP_BUDGET = "exhausted_jump_budget"
    DOMAIN_EXIT_AT_ZERO = "domain_exit_at_zero"


@dataclass
class Trajectory:
    """One sampled jump chain: t_0 = 0 < t_1 < ... with positions xi_n."""

    jump_times: np.ndarray
    positions: np.ndarray
    status: TrajectoryStatus
    horizon: float
    seed: int
    path_id: int

    @property
    def holding_times(self):
        return np.diff(self.jump_times)

    def to_csv(self, path):
        data = np.column_stack([np.arange(len(self.jump_times)),
                                self.jump_times, self.positions])
        np.savetxt(path, data, delimiter=",", header="n,t_n,xi_n", comments="")


@dataclass
class Estimate:
    value: float
    std_error: float
    n_paths: int
    diagnostics: dict = field(default_factory=dict)


def path_rng(seed, path_id):
    """Counter-based per-path generator: key = (master seed, path index)."""
    key = np.array([seed, path_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# run_chains status codes
_RUNNING, _SETTLED, _PARKED, _ABSORBED = 0, 1, 2, 3


def _jump(spec, x, t, u_eps, u_theta, t_stop):
    """One jump of a batch of running paths: (t_new, x_new, status).

    A path settles in place when its time no longer advances (numerically
    converged jump times) or its state leaves float range, and also settles
    after jumping out of (0, inf); a decay orbit that reaches 0 before its
    next jump is absorbed there; past ``t_stop`` a path is parked.
    """
    regime = spec.regime
    eps = -np.log1p(-u_eps)
    theta = _clamp_q(u_theta)
    exceeded = np.zeros(len(x), dtype=bool)
    if regime is Regime.PURE_JUMP:
        rate = np.asarray(spec.phi(x), dtype=float)
        if np.any(rate <= 0):
            raise InfiniteHolding("zero jump rate in pure-jump regime")
        dt = eps / rate
        x_pre = x
    else:
        lim = spec.Q.limit_inf if regime is Regime.GROWTH else spec.Q.limit_zero
        lim = np.inf if lim is None else lim
        qx = spec.Q(x)
        with np.errstate(invalid="ignore"):
            exceeded = eps > (lim - qx)
        g0 = spec.G.limit_zero
        if np.any(exceeded) and (regime is Regime.GROWTH or g0 is None
                                 or not np.isfinite(g0)):
            raise InfiniteHolding(
                "cumulative rate along the orbit is bounded; check asGQ/asGQd")
        x_pre = spec.Q.inverse(qx + np.where(exceeded, 0.0, eps))
        gx = spec.G(x)
        # a state below float range cannot be advanced: freeze via the guard
        dead = ~(x_pre > 0.0) | ~np.isfinite(x_pre)
        x_pre = np.where(dead, x, x_pre)
        with np.errstate(over="ignore", invalid="ignore"):
            dt = spec.G(x_pre) - gx
            lossy = dt <= 1e-8 * np.abs(gx)
            if np.any(lossy):
                # G-difference lost to rounding: short orbit segment,
                # eps/phi(geometric midpoint) is the exact limit
                mid = np.sqrt(x * x_pre)
                rate = np.asarray(spec.phi(mid), dtype=float)
                dt = np.where(lossy, eps / rate, dt)
        dt = np.where(dead, np.nan, dt)
    x_new = np.asarray(spec.kernel.sample(theta, x_pre), dtype=float)
    t_new = t + dt
    if np.any(exceeded):
        # no jump before the rate budget runs out: the orbit hits 0 first
        t_new = np.where(exceeded, t + (g0 - gx), t_new)
        x_new = np.where(exceeded, 0.0, x_new)
    # non-increasing or non-finite time: the increment is lost to rounding;
    # settle at the previous time without a bogus jump
    degenerate = ~(np.isfinite(t_new) & (t_new > t)) & ~exceeded
    t_new = np.where(degenerate, t, t_new)
    x_new = np.where(degenerate, x, x_new)
    status = np.full(len(x), _RUNNING, dtype=np.int8)
    status[degenerate | (x_new <= 0) | ~np.isfinite(x_new)] = _SETTLED
    status[exceeded] = _ABSORBED
    if t_stop is not None:
        status[(t_new > t_stop) & (status == _RUNNING)] = _PARKED
    return t_new, x_new, status


def simulate_chain(spec, x0, *, seed, path_id=0, n_max=DEFAULT_N_MAX,
                   t_max=DEFAULT_T_MAX):
    """Sample one jump chain.  Bit-identical for identical (seed, path_id, spec).

    The one-path run of ``run_chains``' step, recording every jump.  Stops at
    the first of: t_n > t_max, n = n_max jumps, 0-absorption of the decay
    orbit, or a step whose time no longer advances (not recorded).  Raises
    InfiniteHolding for mis-specified models whose cumulative rate along an
    orbit stays bounded.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if n_max < 1 or t_max <= 0:
        raise ValueError("need n_max >= 1 and t_max > 0")
    gen = path_rng(seed, path_id)
    times = [0.0]
    positions = [float(x0)]
    code = _RUNNING
    for _ in range(n_max):
        u = gen.random(2)
        t_new, x_new, st = _jump(spec, np.array(positions[-1:]),
                                 np.array(times[-1:]), u[:1], u[1:], t_max)
        code = int(st[0])
        if code == _SETTLED and t_new[0] == times[-1]:
            break  # settled in place: nothing to record
        times.append(float(t_new[0]))
        positions.append(float(x_new[0]))
        if code != _RUNNING:
            break
    if code == _SETTLED:  # stuck in place, or jumped out of (0, inf)
        code = _RUNNING if 0.0 < positions[-1] < math.inf else _ABSORBED
    status = {_RUNNING: TrajectoryStatus.EXHAUSTED_JUMP_BUDGET,
              _PARKED: TrajectoryStatus.ALIVE_AT_HORIZON,
              _ABSORBED: TrajectoryStatus.DOMAIN_EXIT_AT_ZERO}[code]
    return Trajectory(np.array(times), np.array(positions), status,
                      float(t_max), int(seed), int(path_id))


def state_at(traj, spec, t):
    """X(t) along a recorded trajectory; CEMETERY past a possible explosion."""
    from .characteristics import flow

    if t < 0:
        raise ValueError("t must be nonnegative")
    times = traj.jump_times
    if traj.status is TrajectoryStatus.ALIVE_AT_HORIZON and t > traj.horizon:
        raise HorizonExceeded(f"trajectory answers only up to t={traj.horizon}")
    if t > times[-1]:
        if traj.status is TrajectoryStatus.EXHAUSTED_JUMP_BUDGET:
            return CEMETERY  # possibly exploded; conservative
        if traj.status is TrajectoryStatus.DOMAIN_EXIT_AT_ZERO:
            return 0.0
        raise HorizonExceeded("time beyond the recorded jump chain")
    n = int(np.searchsorted(times, t, side="right") - 1)
    return flow(spec, t - times[n], traj.positions[n])


# -- vectorized chain engine ------------------------------------------------

def _run_block(spec, x0s, seed, path_offset, n_max, checkpoints, t_stop,
               out_times, out_final_x, out_status, sl):
    """Advance a contiguous block of paths; writes results into slices."""
    P = len(x0s)
    x = np.asarray(x0s, dtype=float).copy()
    t = np.zeros(P)
    status = np.full(P, _RUNNING, dtype=np.int8)
    gens = [path_rng(seed, path_offset + i) for i in range(P)]
    cp_rows = {c: k for k, c in enumerate(checkpoints)}
    chunk = 64
    draws = np.empty((P, 2 * chunk))
    n_done = 0
    while n_done < n_max:
        run = np.nonzero(status == _RUNNING)[0]
        if len(run) == 0:
            break
        s = n_done % chunk
        if s == 0:
            width = 2 * min(chunk, n_max - n_done)
            for i in run:
                gens[i].random(out=draws[i, :width])
        t[run], x[run], status[run] = _jump(
            spec, x[run], t[run], draws[run, 2 * s], draws[run, 2 * s + 1],
            t_stop)
        n_done += 1
        if n_done in cp_rows:
            out_times[cp_rows[n_done], sl] = t
    # paths all settled early: later checkpoints repeat their times
    out_times[np.searchsorted(checkpoints, n_done, side="right"):, sl] = t
    out_final_x[sl] = x
    out_status[sl] = status


def run_chains(spec, x0s, *, seed, n_max=DEFAULT_N_MAX, checkpoints=None,
               t_stop=None, workers=1, path_offset=0):
    """Jump-time checkpoints for a batch of paths.

    Returns (times, final_x, status, checkpoints) where ``times[k, p]`` is
    t_{checkpoints[k]} of path p and ``status[p]`` is 0 running (budget
    spent), 1 settled, 2 parked or 3 absorbed at 0.  Paths whose jump-time
    increments underflow (numerically converged explosion candidates) are
    frozen; their later checkpoints repeat the settled time, which is exact.
    With ``t_stop`` set, paths are parked once t exceeds it (their recorded
    time is then only a witness > t_stop).  Results are independent of the
    worker count.
    """
    x0s = np.asarray(x0s, dtype=float)
    P = len(x0s)
    if checkpoints is None:
        checkpoints = (n_max,)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints[-1] > n_max or checkpoints[0] < 1:
        raise ValueError("checkpoints must lie in [1, n_max]")
    out_times = np.full((len(checkpoints), P), np.nan)
    out_final_x = np.empty(P)
    out_status = np.empty(P, dtype=np.int8)
    block = max(1, min(32768, (P + max(1, workers) - 1) // max(1, workers)))
    slices = [slice(i, min(i + block, P)) for i in range(0, P, block)]

    def work(sl):
        _run_block(spec, x0s[sl], seed, path_offset + sl.start, n_max,
                   checkpoints, t_stop, out_times, out_final_x, out_status, sl)

    if workers > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(work, slices))
    else:
        for sl in slices:
            work(sl)
    return out_times, out_final_x, out_status, checkpoints


# -- estimators -------------------------------------------------------------

def _binomial_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def estimate_explosion_cdf(spec, x0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed, workers=1):
    """P_x(t_infty <= t) approximated from above in law by P(t_{n_max} <= t).

    The truncation is monotone: t_{n_max} <= t_infty, so the estimate can
    only overshoot; the value at n_max/2 is reported as sensitivity.
    """
    if n_paths < 100:
        raise ValueError("need n_paths >= 100")
    if t < 0:
        raise ValueError("t must be nonnegative")
    half = max(1, n_max // 2)
    times, _, status, cps = run_chains(
        spec, np.full(n_paths, float(x0)), seed=seed, n_max=n_max,
        checkpoints=(half, n_max), t_stop=t, workers=workers)
    val = float(np.mean(times[cps.index(n_max)] <= t))
    val_half = float(np.mean(times[cps.index(half)] <= t))
    return Estimate(val, _binomial_se(val, n_paths), n_paths, {
        "n_max": n_max, "value_at_half_budget": val_half,
        "frac_budget_exhausted": float(np.mean(status == 0)),
    })


def estimate_laplace_explosion(spec, x0, lam, n_paths, n_max=DEFAULT_N_MAX, *,
                               seed, workers=1):
    """E_x e^{-lam * t_infty} bounded from above by the mean of e^{-lam t_{n_max}}."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    half = max(1, n_max // 2)
    t_stop = 745.0 / lam  # e^{-lam t} underflows beyond this
    times, _, status, cps = run_chains(
        spec, np.full(n_paths, float(x0)), seed=seed, n_max=n_max,
        checkpoints=(half, n_max), t_stop=t_stop, workers=workers)
    w_full = np.exp(-lam * times[cps.index(n_max)])
    w_half = np.exp(-lam * times[cps.index(half)])
    val = float(np.mean(w_full))
    se = float(np.std(w_full, ddof=1) / math.sqrt(n_paths))
    return Estimate(val, se, n_paths, {
        "n_max": n_max, "truncation_gap": float(np.mean(w_half - w_full)),
        "frac_budget_exhausted": float(np.mean(status == 0)),
    })


def estimate_survival_mass(spec, u0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed, workers=1, tol_mass=1e-6):
    """||P(t) u0|| estimated as the u0-average of 1{t_{n_max} > t}.

    Initial states are drawn by stratified inverse-CDF sampling from the grid
    density (one stratum per path); the truncation bias is upward and bounded
    by the half-budget sensitivity.
    """
    total = u0.total_mass
    if abs(total - 1.0) > tol_mass:
        raise NotADensity(f"u0 has mass {total}, expected 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    strat_gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, 2 ** 63], dtype=np.uint64)))
    us = (np.arange(n_paths) + strat_gen.random(n_paths)) / n_paths
    x0s = u0.sample_inverse_cdf(us)
    half = max(1, n_max // 2)
    times, _, status, cps = run_chains(
        spec, x0s, seed=seed, n_max=n_max, checkpoints=(half, n_max),
        t_stop=t, workers=workers)
    surv = times[cps.index(n_max)] > t
    surv_half = times[cps.index(half)] > t
    val = float(np.mean(surv))
    return Estimate(val, _binomial_se(val, n_paths), n_paths, {
        "n_max": n_max, "value_at_half_budget": float(np.mean(surv_half)),
        "frac_budget_exhausted": float(np.mean(status == 0)),
    })
