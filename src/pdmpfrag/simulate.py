"""Monte Carlo engine for the minimal PDMP.

Jump chains are sampled exactly: each step reads its holding times (the
generalized inverse of the cumulative rate) and pre-jump positions (directly
through Q) from ``characteristics._holding``, the rule behind
``inverse_cumulative_rate`` and ``post_flow_position`` too, and draws the
daughter sizes through the kernel's inverse CDF.  One vectorized step,
``_jump``, does this for a batch of paths, and one driver, ``_run_block``,
entered by ``_run_batch`` alone, runs it: ``run_chains`` drives many paths
to their checkpoints, ``simulate_chain`` one path with every step a
checkpoint, and ``sample_state`` reads X(t) and N(t) off each path's state
before the step past t.  Explosion is never
detected, only bracketed: estimators expose their truncation sensitivity.

Randomness is counter-based (Philox4x64-10, Salmon et al., SC'11), computed
statelessly by ``_uniforms``: draw k of path p is word k mod 4 of the block
at counter (k // 4 + 1, 0, 0, 0) under key (seed, p), as the double
(w >> 11) * 2**-53.  This is the stream of ``path_rng(seed, p).random()``.
The draws come step-major, one row per draw index across the paths, so a
jump step reads a contiguous row; the first two of the ten rounds, whose
counters are constant but for the block index, are folded.
Step n of a path uses its draws 2n (holding time) and 2n + 1 (daughter
size), so a path's chain depends only on (seed, path id, start state): not
on the batch it runs in or how that batch is split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import _count, _holding, flow_vec
from .errors import NotADensity

DEFAULT_N_MAX = 10_000
DEFAULT_T_MAX = 1_000.0


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
_MASK64 = 0xFFFFFFFFFFFFFFFF
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
    """Draws start .. start+n-1 of each path's stream, shape (n, len(ids)).

    Step-major: row k holds draw start + k of every path, a contiguous row
    of a (blocks, 4, paths) buffer, and column j equals bitwise
    ``path_rng(seed, ids[j]).random(start + n)[start:]``, with no generator
    built per path.  Philox runs on (blocks, paths) arrays, paths on the
    contiguous axis.  Rounds 0 and 1 are folded: block i's counter is
    (i, 0, 0, 0), so round 0's one nonzero product, M0·i, runs on a
    (blocks, 1) column; round 0 leaves the seed k0 in word 0 of every
    block, so round 1's M0 product is one Python int product (mod 2**64),
    and only its M1 product runs on full arrays.  The folding is exact: it
    forms the same 64-bit words by the same products and XORs, and skips
    only those with a zero operand or with operands that no path changes.
    """
    k0 = int(np.array([seed, 0], dtype=np.uint64)[0])  # path_rng's checks
    k1 = np.asarray(ids, dtype=np.uint64)
    b0, b1 = start // 4, (start + n + 3) // 4
    shape = (b1 - b0, len(k1))
    c0, c1, c2, c3, f0, f1, f2, f3, a, b, c = (
        np.empty(shape, dtype=np.uint64) for _ in range(11))
    # round 0 turns the counter (i, 0, 0, 0) of block i into the words
    # (k0, 0, hi(M0 i) ^ k1, lo(M0 i))
    lo, hi, *work = (np.empty((shape[0], 1), dtype=np.uint64) for _ in range(5))
    _mulhilo(_PHILOX_M[0], np.arange(b0 + 1, b1 + 1, dtype=np.uint64)[:, None],
             lo, hi, *work)
    np.bitwise_xor(hi, k1, out=c2)
    # round 1: word 0 is k0 in every block, word 1 is 0
    m0k0 = _PHILOX_M[0] * k0
    k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, k1 + np.uint64(_PHILOX_W[1])
    _mulhilo(_PHILOX_M[1], c2, f1, f0, a, b, c)
    f0 ^= np.uint64(k0)
    np.bitwise_xor(lo ^ np.uint64(m0k0 >> 64), k1, out=f2)
    f3.fill(m0k0 & _MASK64)
    c0, c1, c2, c3, f0, f1, f2, f3 = f0, f1, f2, f3, c0, c1, c2, c3
    for _ in range(2, 10):
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 += np.uint64(_PHILOX_W[1])
        _mulhilo(_PHILOX_M[0], c0, f3, f2, a, b, c)
        _mulhilo(_PHILOX_M[1], c2, f1, f0, a, b, c)
        f0 ^= c1
        f0 ^= np.uint64(k0)
        f2 ^= c3
        f2 ^= k1
        c0, c1, c2, c3, f0, f1, f2, f3 = f0, f1, f2, f3, c0, c1, c2, c3
    out = np.empty((shape[0], 4, shape[1]))
    for j, w in enumerate((c0, c1, c2, c3)):
        w >>= _U11
        np.multiply(w, 2.0 ** -53, out=out[:, j])
    skip = start - 4 * b0
    return out.reshape(-1, len(k1))[skip:skip + n]


def _stratified_starts(u, n_paths, seed, stream):
    """n_paths states drawn from the grid density ``u`` by stratified
    inverse-CDF sampling, one stratum per path, each placed by a draw of a
    stream id above every path id: 2**63 for "survival", 2**62 for "pairing".
    The states come from the cells alone, so ``u`` must have no out-of-grid
    mass: a start in a bucket has no state to draw."""
    if u.sub_grid_mass or u.super_grid_mass:  # nan too
        raise ValueError("starts are drawn from the grid cells, but u has "
                         f"sub-grid mass {u.sub_grid_mass} and super-grid "
                         f"mass {u.super_grid_mass}")
    sid = {"survival": 2 ** 63, "pairing": 2 ** 62}[stream]
    strat = _uniforms(seed, [sid], 0, n_paths)[:, 0]
    return u.sample_inverse_cdf((np.arange(n_paths) + strat) / n_paths)


# run_chains status codes
_RUNNING, _SETTLED, _PARKED, _ABSORBED = 0, 1, 2, 3

# draw refills: about this many Philox blocks (two steps each) over the
# running paths, at least one and at most _MAX_REFILL_BLOCKS per path
_REFILL_BLOCKS = 16384
_MAX_REFILL_BLOCKS = 32
_BLOCK = 32_768  # paths per _run_block call


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
    any_absorbed = absorbed.any()
    if any_absorbed:  # no jump before the rate budget runs out: x hits 0
        x_new = np.where(absorbed, 0.0, x_new)
        moved |= absorbed
    if not moved.all():
        t_new = np.where(moved, t_new, t)
        x_new = np.where(moved, x_new, x)
    running = moved & (x_new > 0) & (x_new < np.inf)  # absorbed: x_new = 0
    # _RUNNING is 0 and _SETTLED 1: the bytes of ~running are the status
    status = np.logical_not(running).view(np.int8)
    if any_absorbed:
        status[absorbed] = _ABSORBED
    if t_stop is not None:
        status[(t_new > t_stop) & running] = _PARKED
    return t_new, x_new, status


def simulate_chain(spec, x0, *, seed, path_id=0, n_max=DEFAULT_N_MAX,
                   t_max=DEFAULT_T_MAX):
    """Sample one jump chain.  Bit-identical for identical (seed, path_id, spec).

    One ``_run_batch`` call on the path, every step a checkpoint (so its
    record takes n_max rows however soon the chain stops), trimmed at the
    stop step.  Stops at the first of: t_n > t_max, n = n_max jumps,
    0-absorption of the decay orbit, or a step whose time no longer
    advances (not recorded).  Raises InfiniteHolding for mis-specified
    models whose cumulative rate along an orbit stays bounded.
    """
    if not (n_max >= 1 and float(n_max).is_integer() and t_max > 0):
        raise ValueError("need an integer n_max >= 1 and t_max > 0")
    times, xs, stop, last = _run_batch(
        spec, [x0], seed, range(1, int(n_max) + 1), t_max, path_id)
    n, code = int(last[2, 0]), int(stop[0])
    if code == _SETTLED:  # stuck in place, or jumped out of (0, inf)
        code = _RUNNING if 0.0 < xs[n, 0] < math.inf else _ABSORBED
    end = n + (code != _RUNNING)  # steps 1..n, and a stop step that moved
    status = {_RUNNING: TrajectoryStatus.EXHAUSTED_JUMP_BUDGET,
              _PARKED: TrajectoryStatus.ALIVE_AT_HORIZON,
              _ABSORBED: TrajectoryStatus.DOMAIN_EXIT_AT_ZERO}[code]
    return Trajectory(np.append(0.0, times[:end, 0]),
                      np.append(float(x0), xs[:end, 0]), status,
                      float(t_max), int(seed), int(path_id))


# -- vectorized chain engine ------------------------------------------------

def _run_block(spec, x0s, seed, path_offset, checkpoints, t_stop, times, xs,
               status, last):
    """Advance a contiguous block of paths to step checkpoints[-1], writing
    into views of the batch: ``times[k, p]`` and ``xs[k, p]`` are path p's
    time and state after step checkpoints[k], ``status[p]`` its stop code
    and ``last[:, p]`` its time, state and step count before its stop step,
    or at the end if still running there.

    Only the running paths' states are carried from step to step, as compact
    arrays.  A path's status, time and state are written out once, when it
    stops (its time and state to every later checkpoint: they are exact
    there), and the running paths' at each checkpoint; only a step where some
    paths stop indexes the carried arrays, by one pass for the stopped rows
    and one for the kept.  Draws are made only for the running paths, a
    refill at a time: about ``_REFILL_BLOCKS`` Philox blocks, 1 to
    ``_MAX_REFILL_BLOCKS`` per path, never for steps past the last
    checkpoint.  The refill is step-major, so a step reads its two draws as
    row views while no path has stopped since the refill, and gathers them
    by the kept columns (one 1-D take each) after one has.
    """
    P, n_max = len(x0s), checkpoints[-1]
    ids = np.arange(P, dtype=np.uint64) + np.uint64(path_offset)
    run = np.arange(P)  # the running paths, their states in xr and tr
    xr, tr = np.asarray(x0s, dtype=float).copy(), np.zeros(P)
    # k: the row of the first checkpoint at or past the step being run
    n_done = s = width = k = 0
    while n_done < n_max and len(run):
        if s == width:  # buffer spent: refill the running paths
            blocks = min(max(_REFILL_BLOCKS // len(run), 1), _MAX_REFILL_BLOCKS)
            width = min(2 * blocks, n_max - n_done)
            draws = _uniforms(seed, ids[run], 2 * n_done, 2 * width)
            cols, s = None, 0  # run's columns in draws; None: all of them
        u_eps, u_theta = draws[2 * s], draws[2 * s + 1]
        if cols is not None:
            u_eps, u_theta = u_eps[cols], u_theta[cols]
        t_pre, x_pre = tr, xr
        tr, xr, st = _jump(spec, x_pre, t_pre, u_eps, u_theta, t_stop)
        s += 1
        n_done += 1
        if st.any():  # some paths stopped (_RUNNING is 0): write them out
            stop, keep = np.flatnonzero(st), np.flatnonzero(st == _RUNNING)
            gone = run[stop]
            times[k:, gone], xs[k:, gone] = tr[stop], xr[stop]
            status[gone] = st[stop]
            last[:, gone] = (t_pre[stop], x_pre[stop],
                             np.full(len(stop), n_done - 1))
            cols = keep if cols is None else cols[keep]
            run, tr, xr = run[keep], tr[keep], xr[keep]
        if checkpoints[k] == n_done:
            times[k, run], xs[k, run] = tr, xr
            k += 1
    status[run] = _RUNNING
    last[:, run] = tr, xr, np.full(len(run), n_done)


def _run_batch(spec, x0s, seed, rows, t_stop, offset):
    """The one entry into ``_run_block``: checks a batch's start states and
    runs it, block by block, to the steps of ``rows`` (increasing, >= 1, the
    last the budget).  Returns (times, xs, status, last), one row per step."""
    x0s = np.asarray(x0s, dtype=float)
    P = len(x0s)
    ok = (x0s > 0) & (x0s < np.inf)
    if not ok.all():
        raise ValueError(f"starting state {x0s[~ok][0]} is not in (0, inf)")
    times, xs = np.full((len(rows), P), np.nan), np.empty((len(rows), P))
    status, last = np.empty(P, dtype=np.int8), np.empty((3, P))
    for a in range(0, P, _BLOCK):
        sl = slice(a, a + _BLOCK)
        _run_block(spec, x0s[sl], seed, offset + a, rows, t_stop,
                   times[:, sl], xs[:, sl], status[sl], last[:, sl])
    return times, xs, status, last


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
    how a batch is split over calls.

    Paths run serially, ``_BLOCK`` at a time: blocks bound the work arrays
    and beat one whole-batch block (100,000 pure-jump paths, n_max 400, on
    a 2-core VM: 0.65-0.81 s against 0.84-0.96 s).  ``workers`` is ignored.
    """
    if t_stop is not None and not t_stop >= 0:  # NaN too
        raise ValueError("t_stop must be nonnegative")
    cps = sorted(set((n_max,) if checkpoints is None else checkpoints))
    if not cps or not all(float(c).is_integer() for c in [*cps, n_max]):
        raise ValueError(f"need checkpoints and n_max integers: {cps}, {n_max}")
    cps, n_max = list(map(int, cps)), int(n_max)
    if cps[-1] > n_max or cps[0] < 1:
        raise ValueError("checkpoints must lie in [1, n_max]")
    rows = cps + [n_max] * (cps[-1] < n_max)  # final_x's row
    times, xs, status, _ = _run_batch(spec, x0s, seed, rows, t_stop,
                                      path_offset)
    # copies, so no result keeps the n_max row or the other states alive
    return times[:len(cps)].copy(), xs[-1].copy(), status, cps


def sample_state(spec, x0s, t, *, seed, n_max=DEFAULT_N_MAX):
    """X(t) and N(t) of paths from ``x0s``: (x_t, n_t, ``run_chains``' status).

    Path p runs on stream p, parked past t.  It is alive at t when its time
    lies past t, the event ``estimate_survival_mass`` counts (parked, or
    absorbed at 0 after t); then x_t is the flow from its last state before
    t, and n_t its jumps by t.  Otherwise x_t is nan and n_t its jumps.
    """
    if not (0 <= t < math.inf and n_max >= 1 and float(n_max).is_integer()):
        raise ValueError("t must lie in [0, inf), n_max be an integer >= 1")
    times, _, status, (t_prev, x_prev, n_t) = _run_batch(
        spec, x0s, seed, [int(n_max)], t, 0)
    alive = times[0] > t
    x_t = np.full_like(t_prev, np.nan)
    x_t[alive] = flow_vec(spec, t - t_prev[alive], x_prev[alive])[0]
    return x_t, n_t.astype(np.int64), status


# -- estimators -------------------------------------------------------------

def _truncated_share(spec, x0s, ts, n_max, seed, event):
    """One Estimate per t of ``ts`` from one ``run_chains`` batch parked past
    max(ts), by the rule given in ``estimate_explosion_cdf``."""
    half, n = max(1, n_max // 2), len(x0s)
    if n < 100:
        raise ValueError("need n_paths >= 100")
    times, _, status, cps = run_chains(
        spec, x0s, seed=seed, n_max=n_max, checkpoints=(half, n_max),
        t_stop=np.max(ts, initial=0.0))
    t_half, t_full = times[cps.index(half)], times[cps.index(n_max)]
    running = status == _RUNNING
    vals = [float(np.mean(event(t_full, t))) for t in ts]
    return [Estimate(v, math.sqrt(max(v * (1.0 - v), 0.0) / n), n, {
        "n_max": n_max,
        "value_at_half_budget": float(np.mean(event(t_half, t))),
        "frac_budget_exhausted": float(np.mean(running & (t_full <= t)))})
        for t, v in zip(ts, vals)]


def estimate_explosion_cdf(spec, x0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed, workers=1):
    """P_x(t_infty <= t) approximated from above in law by P(t_{n_max} <= t).

    The truncation is monotone: t_{n_max} <= t_infty, so the estimate can
    only overshoot; the value at n_max/2 is reported as sensitivity.  A path
    absorbed at 0 counts at its hit time, so with absorption this is the
    CDF of the lifetime, not of the explosion time alone.  ``t`` is a time
    (one Estimate) or a 1-D sequence (a list), every t read off one batch
    parked past the largest: t_{n_max} <= t, t_{n_max/2} <= t, and budget
    spent by t for paths still running with t_{n_max} <= t.  A path parked
    past a smaller t has t_{n_max} > t there too, so each Estimate is
    bitwise that of a batch parked at its own t.  ``workers`` is ignored.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or not np.all((ts >= 0) & (ts < np.inf)):
        raise ValueError("t must lie in [0, inf): a time or a 1-D sequence")
    x0s = np.full(_count(n_paths, "n_paths"), float(x0))
    est = _truncated_share(spec, x0s, ts.reshape(-1), _count(n_max, "n_max"),
                           seed, np.less_equal)
    return est[0] if ts.ndim == 0 else est


def estimate_survival_mass(spec, u0, t, n_paths, n_max=DEFAULT_N_MAX, *,
                           seed):
    """||P(t) u0|| estimated as the u0-average of 1{t_{n_max} > t}.

    Initial states are drawn by stratified inverse-CDF sampling from the grid
    density (one stratum per path), whose mass must be 1 to within 1e-6,
    all of it on the grid; the truncation bias is upward and bounded by the
    half-budget sensitivity.
    An absorbed path counts at its hit time, as in ``estimate_explosion_cdf``.
    """
    if abs(u0.total_mass - 1.0) > 1e-6:
        raise NotADensity(f"u0 has mass {u0.total_mass}, expected 1")
    if not 0 <= t < math.inf:
        raise ValueError("t must lie in [0, inf)")
    x0s = _stratified_starts(u0, _count(n_paths, "n_paths"), seed, "survival")
    return _truncated_share(spec, x0s, [t], _count(n_max, "n_max"), seed,
                            np.greater)[0]
