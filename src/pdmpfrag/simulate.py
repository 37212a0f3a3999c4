"""Monte Carlo engine for the minimal PDMP.

Jump chains are sampled exactly: each step reads its holding times (the
generalized inverse of the cumulative rate) and pre-jump positions (directly
through Q) from ``characteristics._holding``, the rule behind
``inverse_cumulative_rate`` and ``post_flow_position`` too, and draws the
daughter sizes through the kernel's inverse CDF.  One vectorized step,
``_jump``, does this for a batch of paths: ``run_chains`` drives it over
many paths and records checkpoints, ``simulate_chain`` runs it on one path
and records every jump.  Explosion is never detected, only bracketed:
estimators expose their truncation sensitivity.

Randomness is counter-based (Philox4x64-10, Salmon et al., SC'11), computed
statelessly by ``_uniforms``: draw k of path p is word k mod 4 of the block
at counter (k // 4 + 1, 0, 0, 0) under key (seed, p), as the double
(w >> 11) * 2**-53.  This is the stream of ``path_rng(seed, p).random()``.
Step n of a path uses its draws 2n (holding time) and 2n + 1 (daughter
size), so a path's chain depends only on (seed, path id, start state): not
on the batch it runs in, how that batch is split or the worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .characteristics import _holding, flow
from .errors import HorizonExceeded, NotADensity

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


# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_U32, _U11 = np.uint64(32), np.uint64(11)


def _mulhilo(m, x, lo, hi, a, b, c):
    """lo, hi = low and high words of m * x (m a 64-bit constant), in place.

    The high word is summed from 32-bit limbs; a, b and c are work arrays.
    """
    ml, mh = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=a)
    np.right_shift(x, _U32, out=b)
    np.multiply(b, mh, out=hi)
    b *= ml
    np.multiply(a, mh, out=c)
    a *= ml
    a >>= _U32
    b += a  # ml*xh + carry of ml*xl: below 2**64
    np.bitwise_and(b, _LO32, out=a)
    c += a
    b >>= _U32
    c >>= _U32
    hi += b
    hi += c
    np.multiply(x, np.uint64(m), out=lo)


def _uniforms(seed, ids, start, n):
    """Draws start .. start+n-1 of each path's stream, shape (len(ids), n).

    Equal bitwise to ``path_rng(seed, p).random(start + n)[start:]`` for
    every p in ``ids``, without building a generator per path.
    """
    k0 = int(np.array([seed, 0], dtype=np.uint64)[0])  # path_rng's checks
    k1 = np.asarray(ids, dtype=np.uint64)[:, None].copy()
    b0, b1 = start // 4, (start + n + 3) // 4
    shape = (len(k1), b1 - b0)
    c0 = np.broadcast_to(np.arange(b0 + 1, b1 + 1, dtype=np.uint64), shape)
    c0 = c0.copy()
    c1, c2, c3 = (np.zeros(shape, dtype=np.uint64) for _ in range(3))
    f0, f1, f2, f3, a, b, c = (np.empty(shape, dtype=np.uint64)
                               for _ in range(7))
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
            k1 += np.uint64(_PHILOX_W[1])
        _mulhilo(_PHILOX_M[0], c0, f3, f2, a, b, c)
        _mulhilo(_PHILOX_M[1], c2, f1, f0, a, b, c)
        f0 ^= c1
        f0 ^= np.uint64(k0)
        f2 ^= c3
        f2 ^= k1
        c0, c1, c2, c3, f0, f1, f2, f3 = f0, f1, f2, f3, c0, c1, c2, c3
    out = np.empty(shape + (4,))
    for j, w in enumerate((c0, c1, c2, c3)):
        w >>= _U11
        np.multiply(w, 2.0 ** -53, out=out[:, :, j])
    skip = start - 4 * b0
    return out.reshape(len(k1), -1)[:, skip:skip + n]


def _stratified_starts(u, n_paths, seed, stream):
    """n_paths states drawn from the grid density ``u`` by stratified
    inverse-CDF sampling, one stratum per path, each placed by a draw of a
    stream id above every path id: 2**63 for "survival", 2**62 for "pairing"."""
    sid = {"survival": 2 ** 63, "pairing": 2 ** 62}[stream]
    strat = _uniforms(seed, [sid], 0, n_paths)[0]
    return u.sample_inverse_cdf((np.arange(n_paths) + strat) / n_paths)


# run_chains status codes
_RUNNING, _SETTLED, _PARKED, _ABSORBED = 0, 1, 2, 3

# draw refills: about this many Philox blocks (two steps each) over the
# running paths, at least one and at most _MAX_REFILL_BLOCKS per path
_REFILL_BLOCKS = 16384
_MAX_REFILL_BLOCKS = 32


def _jump(spec, x, t, u_eps, u_theta, t_stop):
    """One jump of a batch of running paths: (t_new, x_new, status).

    Holding times and pre-jump states come from ``characteristics._holding``,
    daughters from the kernel.  A path settles in place when its time no
    longer advances (converged jump times) or its state leaves float range,
    and after jumping out of (0, inf); a decay orbit that reaches 0 before
    its next jump is absorbed there; past ``t_stop`` a path is parked.  The
    absorbed and in-place fix-ups run only on steps that have such paths.
    """
    dt, x_pre, absorbed = _holding(spec, x, -np.log1p(-u_eps))
    x_new = np.asarray(spec.kernel.sample(u_theta, x_pre), dtype=float)
    t_new = t + dt
    # non-increasing or non-finite time: the increment is lost to rounding;
    # settle at the previous time without a bogus jump
    moved = (t_new > t) & (t_new < np.inf)
    if absorbed.any():  # no jump before the rate budget runs out: x hits 0
        x_new = np.where(absorbed, 0.0, x_new)
        moved |= absorbed
    if not moved.all():
        t_new = np.where(moved, t_new, t)
        x_new = np.where(moved, x_new, x)
    running = moved & (x_new > 0) & (x_new < np.inf)  # absorbed: x_new = 0
    status = np.where(running, np.int8(_RUNNING), np.int8(_SETTLED))
    status[absorbed] = _ABSORBED
    if t_stop is not None:
        status[(t_new > t_stop) & running] = _PARKED
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
    times, positions = [0.0], [float(x0)]
    code = _RUNNING
    for n in range(n_max):
        s = n % (2 * _MAX_REFILL_BLOCKS)
        if s == 0:
            u = _uniforms(seed, [path_id], 2 * n, 4 * _MAX_REFILL_BLOCKS)[0]
        t_new, x_new, st = _jump(spec, np.array(positions[-1:]),
                                 np.array(times[-1:]), u[2 * s:2 * s + 1],
                                 u[2 * s + 1:2 * s + 2], t_max)
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
    """Advance a contiguous block of paths; writes results into slices.

    Only the running paths' states are carried from step to step, as compact
    arrays.  A path's final state, status and time are written out once,
    when it stops (its time to every later checkpoint: it is exact there),
    and the running paths' times at each checkpoint; only a step where some
    paths stop indexes the carried arrays, by one pass for the stopped rows
    and one for the kept.  Draws are made only for the running paths, a
    refill at a time: about ``_REFILL_BLOCKS`` Philox blocks, 1 to
    ``_MAX_REFILL_BLOCKS`` per path, never for steps past ``n_max``.
    """
    times, final_x, status = out_times[:, sl], out_final_x[sl], out_status[sl]
    P = len(x0s)
    ids = np.arange(P, dtype=np.uint64) + np.uint64(path_offset)
    cp_rows = {c: k for k, c in enumerate(checkpoints)}
    run = np.arange(P)  # the running paths, their states in xr and tr
    xr, tr = np.asarray(x0s, dtype=float).copy(), np.zeros(P)
    n_done = s = width = 0
    while n_done < n_max and len(run):
        if s == width:  # buffer spent: refill the running paths
            blocks = min(max(_REFILL_BLOCKS // len(run), 1), _MAX_REFILL_BLOCKS)
            width = min(2 * blocks, n_max - n_done)
            draws = _uniforms(seed, ids[run], 2 * n_done, 2 * width)
            rows, s = np.arange(len(run)), 0  # run's rows in draws
        tr, xr, st = _jump(spec, xr, tr, draws[rows, 2 * s],
                           draws[rows, 2 * s + 1], t_stop)
        s += 1
        n_done += 1
        if st.any():  # some paths stopped (_RUNNING is 0): write them out
            stop, keep = np.flatnonzero(st), np.flatnonzero(st == _RUNNING)
            gone = run[stop]
            final_x[gone], status[gone] = xr[stop], st[stop]
            times[np.searchsorted(checkpoints, n_done):, gone] = tr[stop]
            run, rows, tr, xr = run[keep], rows[keep], tr[keep], xr[keep]
        if n_done in cp_rows:
            times[cp_rows[n_done], run] = tr
    final_x[run], status[run] = xr, _RUNNING


def run_chains(spec, x0s, *, seed, n_max=DEFAULT_N_MAX, checkpoints=None,
               t_stop=None, workers=1, path_offset=0):
    """Jump-time checkpoints for a batch of paths.

    Returns (times, final_x, status, checkpoints) where ``times[k, p]`` is
    t_{checkpoints[k]} of path p and ``status[p]`` is 0 running (budget
    spent), 1 settled, 2 parked or 3 absorbed at 0.  Paths whose jump-time
    increments underflow (numerically converged explosion candidates) are
    frozen; their later checkpoints repeat the settled time, which is exact.
    With ``t_stop`` set, paths are parked once t exceeds it (their recorded
    time is then only a witness > t_stop).  Path p runs on the stream of
    path id ``path_offset + p``; its draws are computed for the steps it
    runs and nothing is buffered per path, so results are independent of
    the worker count and of how a batch is split over calls.
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


def _truncated_share(spec, x0s, t, n_max, seed, workers, event):
    """Share of the paths from ``x0s`` with ``event(t_{n_max}, t)``, with its
    value at n_max/2 and the share of paths whose jump budget ran out."""
    half = max(1, n_max // 2)
    times, _, status, cps = run_chains(
        spec, x0s, seed=seed, n_max=n_max, checkpoints=(half, n_max),
        t_stop=t, workers=workers)
    val = float(np.mean(event(times[cps.index(n_max)], t)))
    return Estimate(val, _binomial_se(val, len(x0s)), len(x0s), {
        "n_max": n_max,
        "value_at_half_budget": float(np.mean(event(times[cps.index(half)], t))),
        "frac_budget_exhausted": float(np.mean(status == _RUNNING)),
    })


def estimate_explosion_cdf(spec, x0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed, workers=1):
    """P_x(t_infty <= t) approximated from above in law by P(t_{n_max} <= t).

    The truncation is monotone: t_{n_max} <= t_infty, so the estimate can
    only overshoot; the value at n_max/2 is reported as sensitivity.  A path
    absorbed at 0 counts at its hit time, so with absorption this is the
    CDF of the lifetime, not of the explosion time alone.
    """
    if n_paths < 100:
        raise ValueError("need n_paths >= 100")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _truncated_share(spec, np.full(n_paths, float(x0)), t, n_max, seed,
                            workers, np.less_equal)


def estimate_survival_mass(spec, u0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed, workers=1):
    """||P(t) u0|| estimated as the u0-average of 1{t_{n_max} > t}.

    Initial states are drawn by stratified inverse-CDF sampling from the grid
    density (one stratum per path), whose mass must be 1 to within 1e-6; the
    truncation bias is upward and bounded by the half-budget sensitivity.  As in ``estimate_explosion_cdf``, a path
    absorbed at 0 counts at its hit time.
    """
    total = u0.total_mass
    if abs(total - 1.0) > 1e-6:
        raise NotADensity(f"u0 has mass {total}, expected 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    x0s = _stratified_starts(u0, n_paths, seed, "survival")
    return _truncated_share(spec, x0s, t, n_max, seed, workers, np.greater)
