"""The jump step, pinned: frozen chains and a reference step on crafted batches."""

import json
from pathlib import Path

import numpy as np
import pytest

from pdmpfrag import (
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    build_characteristics,
    run_chains,
)
from pdmpfrag.characteristics import _holding
from pdmpfrag.errors import InfiniteHolding
from pdmpfrag.simulate import _ABSORBED, _PARKED, _RUNNING, _SETTLED, _jump
from conftest import power_model, unit_decay_model

DATA = Path(__file__).resolve().parent / "data"

# name: (model builder, start states, run_chains keywords).  The cases mix
# every stop: phi = 1/x parks, settles (converged jump times) and runs out
# of budget; the classify model runs; unit decay absorbs at 0 and parks;
# the tabulated-Q growth model parks and runs.
CHAIN_CASES = {
    "pure_frag_t_stop": (lambda: power_model("pure_jump", alpha=-1.0),
                         np.geomspace(1e-3, 1e1, 64), {"t_stop": 1.0}),
    "classify_decay": (lambda: power_model("decay", alpha=0.0, beta=-1.0),
                       np.geomspace(1e-3, 1e3, 64), {}),
    "decay_exit": (unit_decay_model, np.geomspace(0.05, 2.0, 64),
                   {"t_stop": 0.2}),
    "tabulated_growth": (lambda: build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: x), PowerLawKernel(0.0)),
        np.geomspace(0.5, 2.0, 64), {"t_stop": 30.0}),
}


def chain_arrays(name):
    """(times, final_x, status) of one frozen case: seed 5, 60 jumps."""
    build, x0s, kw = CHAIN_CASES[name]
    times, final_x, status, _ = run_chains(build(), x0s, seed=5, n_max=60,
                                           checkpoints=(30, 60), **kw)
    return times, final_x, status


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_chains_golden(name):
    # frozen before the jump step was trimmed; floats stored by repr.  The
    # times and final_x of decay_exit (4 and 4) and tabulated_growth (32 and
    # 13) re-frozen when the tabulated inverse's start became a degree-7
    # polynomial per cell: they moved by <= 4.1e-16 relative, every status
    # and every other array kept its bits
    want = json.loads((DATA / "chains_golden.json").read_text())[name]
    times, final_x, status = chain_arrays(name)
    np.testing.assert_array_equal(times, np.array(want["times"]))
    np.testing.assert_array_equal(final_x, np.array(want["final_x"]))
    np.testing.assert_array_equal(status, np.array(want["status"]))


# -- reference step ---------------------------------------------------------
# The jump step as it was before its no-op passes were skipped: every mask
# built and applied on every call.  The step must match it bit for bit.

def _holding_ref(spec, x, eps):
    regime = spec.regime
    if regime is Regime.PURE_JUMP:
        rate = np.asarray(spec.phi(x), dtype=float)
        if np.any(rate <= 0):
            raise InfiniteHolding("zero jump rate in pure-jump regime")
        return eps / rate, x, np.zeros(len(x), dtype=bool)
    lim = spec.Q.limit_inf if regime is Regime.GROWTH else spec.Q.limit_zero
    qx = spec.Q(x)
    with np.errstate(invalid="ignore"):
        absorbed = eps > (lim - qx)
    g0 = spec.G.limit_zero
    if np.any(absorbed) and (regime is Regime.GROWTH or g0 is None
                             or not np.isfinite(g0)):
        raise InfiniteHolding("bounded cumulative rate")
    x_pre = spec.Q.inverse(qx + np.where(absorbed, 0.0, eps))
    gx = spec.G(x)
    dead = ~(x_pre > 0.0) | ~np.isfinite(x_pre)
    x_pre = np.where(dead, x, x_pre)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = spec.G(x_pre) - gx
        lossy = (dt <= 1e-8 * np.abs(gx)) | (np.abs(x_pre - x) <= 1e-8 * x)
        if np.any(lossy):
            mid = np.sqrt(x * x_pre)
            rate = np.asarray(spec.phi(mid), dtype=float)
            dt = np.where(lossy, eps / rate, dt)
    dt = np.where(dead, np.nan, dt)
    if np.any(absorbed):
        dt = np.where(absorbed, g0 - gx, dt)
    return dt, x_pre, absorbed


def _jump_ref(spec, x, t, u_eps, u_theta, t_stop):
    dt, x_pre, absorbed = _holding_ref(spec, x, -np.log1p(-u_eps))
    x_new = np.asarray(spec.kernel.sample(u_theta, x_pre), dtype=float)
    t_new = t + dt
    x_new = np.where(absorbed, 0.0, x_new)
    degenerate = ~(np.isfinite(t_new) & (t_new > t)) & ~absorbed
    t_new = np.where(degenerate, t, t_new)
    x_new = np.where(degenerate, x, x_new)
    status = np.full(len(x), _RUNNING, dtype=np.int8)
    status[degenerate | (x_new <= 0) | ~np.isfinite(x_new)] = _SETTLED
    status[absorbed] = _ABSORBED
    if t_stop is not None:
        status[(t_new > t_stop) & (status == _RUNNING)] = _PARKED
    return t_new, x_new, status


def _tabulated_growth():
    return build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: x), PowerLawKernel(0.0))


# name: (model builder, crafted rows (x, t, u_eps, u_theta)).  Row kinds:
# "plain"; "degenerate" (t + dt == t); "dead" (x_pre leaves float range:
# inf on the log-Q growth orbit, 0 on the decay one); "absorbed" (the decay
# orbit hits 0 first); "parked" (t_new > t_stop = 5); "daughter0" (the
# daughter underflows to 0); "off_table" (x beyond a tabulated Q's domain).
STEP_CASES = {
    "unit_decay": (unit_decay_model, {
        "plain": (0.5, 0.0, 0.3, 0.6), "degenerate": (0.5, 1e300, 0.3, 0.6),
        "absorbed": (0.5, 1.0, 1.0 - 1e-9, 0.6),
        "parked": (0.5, 4.99, 0.2, 0.6)}),
    "log_q_growth": (lambda: power_model("growth", alpha=0.0, beta=0.0), {
        "plain": (2.0, 0.0, 0.3, 0.6), "degenerate": (2.0, 1e300, 0.3, 0.6),
        "dead": (1e300, 1.0, 1.0 - 1e-12, 0.6),
        "parked": (2.0, 4.9, 0.9, 0.6), "daughter0": (5e-324, 0.0, 0.1, 0.1)}),
    "bounded_pure_jump": (lambda: power_model("pure_jump", alpha=0.0), {
        "plain": (2.0, 0.0, 0.3, 0.6), "degenerate": (2.0, 1e300, 0.3, 0.6),
        "parked": (2.0, 4.9, 0.9, 0.6), "daughter0": (5e-324, 0.0, 0.5, 0.1)}),
    "classify_decay": (lambda: power_model("decay", alpha=0.0, beta=-1.0), {
        "plain": (3.0, 0.0, 0.3, 0.6), "degenerate": (3.0, 1e300, 0.3, 0.6),
        "parked": (1e-3, 4.0, 0.9, 0.6), "dead": (5e-324, 0.0, 0.5, 0.6)}),
    "tabulated_growth": (_tabulated_growth, {
        "plain": (1.5, 0.0, 0.3, 0.6), "degenerate": (1.5, 1e300, 0.3, 0.6),
        "off_table": (1e300, 1.0, 1.0 - 1e-12, 0.6),
        "parked": (1.5, 4.9, 0.9, 0.6)}),
}


def _step_batches(rows):
    """Batches of crafted rows: each kind alone, all kinds mixed among plain
    rows, and plain rows only (no fix-up fires)."""
    plain = [rows["plain"]] * 3
    batches = [[rows[k]] for k in rows]
    batches.append(plain + [rows[k] for k in rows if k != "plain"] + plain)
    batches.append(plain + [(1.25 * x, t + 0.5, 0.5 * ue, 0.5 * ut)
                            for x, t, ue, ut in plain])
    return batches


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_jump_step_matches_reference(name):
    build, rows = STEP_CASES[name]
    spec = build()
    for batch in _step_batches(rows):
        x, t, u_eps, u_theta = (np.array(c, dtype=float) for c in zip(*batch))
        eps = -np.log1p(-u_eps)
        for got, want in zip(_holding(spec, x, eps),
                             _holding_ref(spec, x, eps)):
            np.testing.assert_array_equal(got, want)
        for t_stop in (None, 5.0):
            for got, want in zip(_jump(spec, x, t, u_eps, u_theta, t_stop),
                                 _jump_ref(spec, x, t, u_eps, u_theta, t_stop)):
                np.testing.assert_array_equal(got, want)
