"""Self-test of the benchmark's input generator, checks and tail statistic.

Run from the repository root:
    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pdmpfrag as pf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WL = workloads.WORKLOADS


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _seeded(wl, seed, n=3):
    state = wl.setup(seed)
    inputs = [wl.make_input(state, i) for i in range(n)]
    u0s = [u.masses for u in state.get("u0s", [])]
    return inputs, u0s


@pytest.mark.parametrize("name", sorted(WL))
def test_same_seed_same_inputs(name):
    a, b, c = (_seeded(WL[name], s) for s in (5, 5, 6))
    assert all(_same(x, y) for x, y in zip(a[0] + a[1], b[0] + b[1]))
    assert not all(_same(x, y) for x, y in zip(a[0] + a[1], c[0] + c[1]))


def test_mc_pure_jump_check():
    wl = WL["mc_pure_jump"]
    state = wl.setup(1)
    inp = wl.make_input(state, 0)
    ref = float(pf.explosion_cdf(state["oracle"], inp["t"], inp["x0"]))
    assert wl.check(state, inp, pf.Estimate(ref + 0.003, 0.003, wl.n_paths))[0]
    assert not wl.check(state, inp, pf.Estimate(ref + 0.02, 0.003, wl.n_paths))[0]


def test_mc_tabulated_growth_check():
    wl = WL["mc_tabulated_growth"]
    state = wl.setup(1)
    inp = wl.make_input(state, 0)
    inp["x0s"] = inp["x0s"][:16]
    times, final_x, status, cps = wl.op(state, inp)
    assert wl.check(state, inp, (times, final_x, status, cps))[0]
    assert not wl.check(state, inp, (times * (1 + 1e-7), final_x, status, cps))[0]


def test_dyson_evolve_check():
    wl = WL["dyson_evolve"]
    state = wl.setup(1)
    conv, unconv = pf.OperatorTrace(), pf.OperatorTrace(converged=False)

    def scaled(case, mass):
        u0 = state["u0s"][case]
        return pf.GridDensity(u0.grid, u0.masses * mass / u0.grid_mass)

    inp = {"case": 0}  # phi = 1/x, checked against exact_mass
    _label, _model, _grid, t, _n_s = wl.cases[0]
    exact = pf.exact_mass(state["oracle"], t, state["u0s"][0])
    assert wl.check(state, inp, (scaled(0, exact), conv))[0]
    assert not wl.check(state, inp, (scaled(0, 1.05 * exact), conv))[0]
    assert not wl.check(state, inp, (scaled(0, exact), unconv))[0]
    honest = {"case": 4}
    assert wl.check(state, honest, (scaled(4, 0.8), conv))[0]
    assert not wl.check(state, honest, (scaled(4, 1.0 + 1e-6), conv))[0]


def test_classify_decay_check():
    wl = WL["classify_decay"]
    state = wl.setup(1)
    inp = wl.make_input(state, 0)
    assert wl.check(state, inp, pf.Classification(pf.Verdict.STOCHASTIC))[0]
    assert not wl.check(state, inp, pf.Classification(pf.Verdict.INCONCLUSIVE))[0]


def test_tail_has_ten_samples_beyond():
    p50, tail, pct, beyond = run.op_stats([float(i) for i in range(1, 41)])
    assert (p50, tail, pct, beyond) == (20.5, 30.0, 75.0, 10)
    assert run.op_stats([1.0, 3.0, 2.0])[1:] == (3.0, 100.0, 0)


def test_known_defects_stay_out_of_the_cycle():
    wl = WL["dyson_evolve"]
    state = wl.setup(1)
    probes = wl.known_defect_inputs(state)
    assert [wl.all_cases[inp["case"]][0] for inp in probes] == ["iii_t4"]
    assert all(wl.make_input(state, i)["case"] < len(wl.cases) for i in range(2 * wl.cycle))
    lines = run.known_defect_lines([(probes[0], None, "case iii_t4: total mass 2.4 > 1"),
                                    (probes[0], None, None)])
    assert lines[0].startswith("KNOWN DEFECT") and "now passes" in lines[1]
