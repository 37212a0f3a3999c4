"""The four benchmark workloads: seeded inputs, one operation each, checks.

Each workload builds its models through the public ``pdmpfrag`` API in
``setup`` (optionally instrumented by a ``spans.Tracer``), turns the
workload seed and an operation index into that operation's inputs in
``make_input``, runs one operation in ``op`` and judges the result against
an independent reference in ``check``.  Library entry points are looked up
through their modules at call time so that a traced run can wrap them.

Operation sizes are chosen so that one operation takes roughly 0.3-1 s on a
2-core x86 VM; a run of 24 s then collects enough operations for a tail
percentile with ten samples beyond it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

import pdmpfrag as pf
from pdmpfrag import density, diagnose, simulate

# tolerances of the correctness checks
MC_SE_LIMIT = 5.0          # estimate within this many standard errors
TWIN_RTOL = 1e-9           # tabulated vs closed-form checkpoint times
SUBSTOCH_RTOL = 1e-9       # total_mass <= ||u|| (1 + this)
EXACT_MASS_RTOL = 1e-2     # grid mass vs closed-form mass, phi = 1/x


def _rng(seed, workload_id, i):
    """Independent stream per (workload seed, workload, operation index)."""
    return np.random.default_rng([int(seed), workload_id, int(i)])


def _spec(semiflow, rate, kernel, tracer=None):
    """Build a spec; returns (spec, build seconds)."""
    if tracer is not None and rate.phi is not None:
        rate = pf.RateSpec(phi=tracer.wrap("characteristics.phi", rate.phi))
    t0 = time.perf_counter()
    spec = pf.build_characteristics(semiflow, rate, kernel)
    build_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.instrument(spec)
    return spec, build_s


def _rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class McPureJump:
    """Pure fragmentation, phi(x) = 1/x, uniform-fraction kernel: tau ~ Gamma(3) x0."""

    name = "mc_pure_jump"
    wid = 1
    n_paths = 20_000
    n_max = 2_000
    cycle = 1

    def setup(self, seed, tracer=None):
        spec, build_s = _spec(pf.SemiflowSpec(pf.Regime.PURE_JUMP),
                              pf.RateSpec(power=(1.0, -1.0)),
                              pf.PowerLawKernel(0.0), tracer)
        return {"spec": spec, "build_s": build_s, "seed": seed,
                "oracle": pf.TauOracle(nu=0.0, gamma=1.0, a=1.0)}

    def make_input(self, state, i):
        rng = _rng(state["seed"], self.wid, i)
        # t at quantile p of the explosion law; below p = 0.25 an op is
        # markedly cheaper, which would make its cost depend on the seed
        p = rng.uniform(0.25, 0.85)
        x0 = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        t = x0 * float(special.gammaincinv(3.0, p))
        return {"x0": x0, "t": t, "seed": int(rng.integers(2 ** 31))}

    def op(self, state, inp, workers=1):
        return simulate.estimate_explosion_cdf(
            state["spec"], inp["x0"], inp["t"], n_paths=self.n_paths,
            n_max=self.n_max, seed=inp["seed"], workers=workers)

    def check(self, state, inp, est):
        ref = float(pf.explosion_cdf(state["oracle"], inp["t"], inp["x0"]))
        z = abs(est.value - ref) / est.std_error if est.std_error > 0 else math.inf
        return z <= MC_SE_LIMIT, f"estimate {est.value:.5f} vs oracle {ref:.5f} ({z:.2f} se)"

    def run_arrays(self, state, inp, workers):
        """The run_chains call behind ``op``, for the worker-count check."""
        half = self.n_max // 2
        out = simulate.run_chains(
            state["spec"], np.full(self.n_paths, inp["x0"]), seed=inp["seed"],
            n_max=self.n_max, checkpoints=(half, self.n_max), t_stop=inp["t"],
            workers=workers)
        return out[:3]


class McTabulatedGrowth:
    """Growth g(x) = x with phi(x) = x given as a plain callable (tabulated Q)."""

    name = "mc_tabulated_growth"
    wid = 2
    n_paths = 300
    n_max = 200
    checkpoints = (100, 200)
    cycle = 1

    def setup(self, seed, tracer=None):
        semiflow = pf.SemiflowSpec(pf.Regime.GROWTH, power_beta=0.0)
        spec, build_s = _spec(semiflow, pf.RateSpec(phi=lambda x: x),
                              pf.PowerLawKernel(0.0), tracer)
        # closed-form twin: same model, phi declared as the power law a x^1
        twin, _ = _spec(semiflow, pf.RateSpec(power=(1.0, 1.0)),
                        pf.PowerLawKernel(0.0))
        return {"spec": spec, "twin": twin, "build_s": build_s, "seed": seed}

    def make_input(self, state, i):
        rng = _rng(state["seed"], self.wid, i)
        x0s = np.exp(rng.uniform(math.log(0.5), math.log(2.0), self.n_paths))
        return {"x0s": x0s, "seed": int(rng.integers(2 ** 31))}

    def op(self, state, inp, workers=1, spec=None):
        return simulate.run_chains(
            spec or state["spec"], inp["x0s"], seed=inp["seed"],
            n_max=self.n_max, checkpoints=self.checkpoints, workers=workers)

    def check(self, state, inp, res):
        ref = self.op(state, inp, spec=state["twin"])
        err = _rel_err(res[0], ref[0])
        return err <= TWIN_RTOL, f"max rel diff to closed-form twin {err:.2e}"

    def run_arrays(self, state, inp, workers):
        return self.op(state, inp, workers)[:3]


class DysonEvolve:
    """Truncated Dyson-Phillips sums over four fixed cases, cycled in a fixed order."""

    name = "dyson_evolve"
    wid = 3
    # (label, model, grid, t, n_s); model in {"frag_inv_x", "growth", "honest"}
    cases = (
        ("i_t1", "frag_inv_x", (1e-6, 1e2, 256), 1.0, 64),
        ("i_t4", "frag_inv_x", (1e-6, 1e2, 256), 4.0, 128),
        ("ii_t1", "growth", (1e-6, 1e2, 256), 1.0, 64),
        ("ii_t4", "growth", (1e-6, 1e2, 256), 4.0, 64),
    )
    # Case (iii), honest phi = 1 on a grid that mass leaves, fails the
    # substochasticity check at this commit (total mass about 2.4 > ||u||,
    # the sub-grid bucket overcount of ROADMAP item 1).  A timed operation
    # must not fail, so it runs and is checked once per run outside the
    # timed cycle and is reported as a known defect.
    known_defect_cases = (
        ("iii_t4", "honest", (1e-1, 1e2, 192), 4.0, 128),
    )
    all_cases = cases + known_defect_cases
    # One cycle runs i_t1 twice.  With the four cases once each the median op
    # falls between two cost clusters and jumps from run to run; five ops put
    # it inside one cluster.
    order = (0, 0, 1, 2, 3)
    cycle = len(order)
    n_paths = 0

    def setup(self, seed, tracer=None):
        models = {
            "frag_inv_x": (pf.SemiflowSpec(pf.Regime.PURE_JUMP),
                           pf.RateSpec(power=(1.0, -1.0))),
            "growth": (pf.SemiflowSpec(pf.Regime.GROWTH, power_beta=0.0),
                       pf.RateSpec(power=(1.0, 0.0))),
            "honest": (pf.SemiflowSpec(pf.Regime.PURE_JUMP),
                       pf.RateSpec(power=(1.0, 0.0))),
        }
        specs, build_s = {}, 0.0
        for key, (semiflow, rate) in models.items():
            specs[key], b = _spec(semiflow, rate, pf.PowerLawKernel(0.0), tracer)
            build_s += b
        rng = _rng(seed, self.wid, 0)
        u0s = []
        for _label, _model, grid_args, _t, _n_s in self.all_cases:
            # u0 uniform in m on an interval near [1, 2]
            lo = math.exp(rng.uniform(-0.05, 0.05))
            hi = 2.0 * math.exp(rng.uniform(-0.05, 0.05))
            u0s.append(pf.GridDensity.uniform_in_m(pf.LogGrid(*grid_args), lo, hi))
        return {"specs": specs, "u0s": u0s, "build_s": build_s, "seed": seed,
                "oracle": pf.TauOracle(nu=0.0, gamma=1.0, a=1.0)}

    def make_input(self, state, i):
        return {"case": self.order[i % self.cycle]}

    def known_defect_inputs(self, state):
        return [{"case": k} for k in range(len(self.cases), len(self.all_cases))]

    def op(self, state, inp, workers=1):
        _label, model, _grid, t, n_s = self.all_cases[inp["case"]]
        return density.dyson_phillips(state["specs"][model], t,
                                      state["u0s"][inp["case"]], n_s=n_s)

    def grid_rel_err(self, state, inp, res):
        """|grid mass - exact mass| / exact mass on the phi = 1/x cases, else None."""
        _label, model, _grid, t, _n_s = self.all_cases[inp["case"]]
        if model != "frag_inv_x":
            return None
        exact = pf.exact_mass(state["oracle"], t, state["u0s"][inp["case"]])
        return abs(res[0].grid_mass - exact) / exact

    def check(self, state, inp, res):
        out, trace = res
        label = self.all_cases[inp["case"]][0]
        norm = state["u0s"][inp["case"]].total_mass
        fails = []
        if not out.total_mass <= norm * (1.0 + SUBSTOCH_RTOL):
            fails.append(f"total mass {out.total_mass:.6g} > ||u|| = {norm:.6g}")
        err = self.grid_rel_err(state, inp, res)
        if err is not None and not err <= EXACT_MASS_RTOL:
            fails.append(f"grid mass rel err {err:.2e} vs exact_mass")
        if not trace.converged:
            fails.append(f"trace not converged ({trace.note})")
        return not fails, f"case {label}: " + ("; ".join(fails) or "ok")


class ClassifyDecay:
    """Decay g(x) = x^2, phi = 1, uniform-fraction kernel: the classify config model."""

    name = "classify_decay"
    wid = 4
    lambdas = (1.0, 0.3, 0.1)
    n_probes = 7
    n_paths = 400
    n_iter = 100
    cycle = 1
    cells = len(lambdas) * n_probes

    def setup(self, seed, tracer=None):
        spec, build_s = _spec(pf.SemiflowSpec(pf.Regime.DECAY, power_beta=-1.0),
                              pf.RateSpec(power=(1.0, 0.0)),
                              pf.PowerLawKernel(0.0), tracer)
        return {"spec": spec, "build_s": build_s, "seed": seed}

    def make_input(self, state, i):
        rng = _rng(state["seed"], self.wid, i)
        scale = math.exp(rng.uniform(-0.1, 0.1))
        return {"probes": np.geomspace(1e-3, 1e3, self.n_probes) * scale,
                "seed": int(rng.integers(2 ** 31))}

    def op(self, state, inp, workers=1):
        return diagnose.classify(
            state["spec"], self.lambdas, inp["probes"],
            {"n_paths": self.n_paths, "n_iter": self.n_iter},
            seed=inp["seed"], workers=workers)

    def check(self, state, inp, res):
        ref = pf.classify_power_family(0.0, -1.0, 1.0, state["spec"].kernel.h,
                                       regime="decay").verdict
        return res.verdict is ref, f"verdict {res.verdict.value} vs table {ref.value}"

    def run_arrays(self, state, inp, workers):
        res = self.op(state, inp, workers)
        return tuple(np.array([row[k] for row in res.evidence]) for k in ("f_hat", "se"))


WORKLOADS = {w.name: w for w in (McPureJump(), McTabulatedGrowth(),
                                 DysonEvolve(), ClassifyDecay())}
