"""Benchmark of pdmpfrag's three numerical routes plus classification.

Run from the repository root:

    python3 perfbench/run.py --workload mc_pure_jump --seed 1 --seconds 24 --trace 0

Each workload (see BENCHMARK.json for why each was chosen) runs as a closed
loop: one client in this process, workers=1, each operation sent when the
previous one finished.  The first operation is a warm-up and is not timed.
A dyson_evolve loop ends on a whole cycle of its cases, so every run
weighs the cases alike.  Every result is checked against an independent
reference after the loop, outside the timed region.  Inputs that a workload
lists as known defects (dyson case (iii) at this commit) run once after the
loop, untimed; their check outcome is reported but not counted as failed.  Reported times are
wall times scaled by a calibration timed around each one (see calibrate
and calibrate_import), because the shared host's speed drifts by tens of
percent within a minute; the raw medians are printed as well.

--trace 0 prints the end-to-end metrics; --trace 1 makes the traced run:
half the time untraced, half with spans around the calls into each module
(see spans.py), then layer micro-timings and a worker-count check, and
prints the per-layer metrics: span sums per traced operation, and
micro-timings, in raw wall time apart from the scaled cli.import_s and
trace.overhead_s.  Spans are written to perfbench/traces/.
A human-readable report precedes the last stdout line, which is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# calibrate() takes about this long on the 2-core Xeon VM the benchmark was
# tuned on; reported times are scaled to that machine speed (see below)
CAL_REF_S = 0.023
# likewise for calibrate_import(), which scales the set-up times
IMPORT_CAL_REF_S = 0.095
IMPORT_CAL = ("import time; t0 = time.perf_counter(); "
              "import asyncio, csv, decimal, email.parser, http.client, json, "
              "logging.handlers, unittest, xml.dom.minidom, zipfile; "
              "print(time.perf_counter() - t0)")
WORKER_CHECK_WORKERS = 2
MAX_FAILURE_LINES = 5


def _median_time(fn, reps):
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def calibrate():
    """Seconds taken by fixed reference work: a Python loop, small-array
    numpy calls and streaming array arithmetic, the mix pdmpfrag runs.

    The machine's speed drifts by tens of percent within a minute (shared
    host).  Each operation time is reported as its wall time times CAL_REF_S
    over the calibration timed around it, so runs compare at one machine
    speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += i * 0.5
    x = np.linspace(0.5, 1.5, 400)
    for _ in range(1_500):
        x = np.where(x > 1.0, x * 0.999, x + 1e-4)
    y = np.linspace(0.0, 1.0, 200_000)
    for _ in range(5):
        y = np.sqrt(y + 1.0)
    return time.perf_counter() - t0


def calibrate_import():
    """Seconds a fresh interpreter takes to import fixed standard-library modules.

    Import time drifts with the host too, but does not follow calibrate();
    it follows this.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_CAL], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def _scaled(times, cals, ref):
    """Wall times scaled to the reference speed; cals[k], cals[k+1] bracket times[k]."""
    return [t * ref / (0.5 * (a + b)) for t, a, b in zip(times, cals, cals[1:])]


def probe_setup(workload, seed):
    """Median scaled import and set-up times over fresh interpreters, and
    the median raw set-up time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs, cals = [], [calibrate_import()]
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        cals.append(calibrate_import())
    return (*(statistics.median(_scaled([r[k] for r in runs], cals, IMPORT_CAL_REF_S))
              for k in ("import_s", "setup_s")),
            statistics.median(r["setup_s"] for r in runs))


def closed_loop(wl, state, seconds, first):
    """Operations first, first+1, ... until `seconds` pass and a cycle ends.

    Returns (scaled times, raw times, [(input, result, error)]).
    """
    times, done, cals = [], [], [calibrate()]
    i = first
    deadline = time.perf_counter() + seconds
    while True:
        inp = wl.make_input(state, i)
        t0 = time.perf_counter()
        try:
            res, err = wl.op(state, inp), None
        except Exception:  # the loop keeps running; the op counts as failed
            res, err = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
        done.append((inp, res, err))
        i += 1
        if time.perf_counter() >= deadline and (i - first) % wl.cycle == 0:
            return _scaled(times, cals, CAL_REF_S), times, done


def check_all(wl, state, done):
    """Failure notes for ops that raised or failed their correctness check."""
    notes = []
    for inp, res, err in done:
        if err is not None:
            notes.append(f"raised: {err}")
            continue
        ok, note = wl.check(state, inp, res)
        if not ok:
            notes.append(note)
    return notes


def probe_known_defects(wl, state):
    """Run and check the workload's known-defect inputs once, untimed.

    Returns [(input, result or None, failure note or None)].
    """
    out = []
    for inp in (wl.known_defect_inputs(state) if hasattr(wl, "known_defect_inputs") else ()):
        try:
            res = wl.op(state, inp)
        except Exception:
            out.append((inp, None, "raised: " + traceback.format_exc(limit=2)
                        .strip().splitlines()[-1]))
            continue
        ok, note = wl.check(state, inp, res)
        out.append((inp, res, None if ok else note))
    return out


def known_defect_lines(probes):
    return [f"KNOWN DEFECT (not counted in failed): {note}" if note is not None
            else f"known-defect input {inp} now passes its check: time it in the cycle"
            for inp, _res, note in probes]


def op_stats(times):
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    s = sorted(times)
    if n >= 11:
        tail, pct, beyond = s[n - 11], 100.0 * (n - 10) / n, 10
    else:  # too few samples for the rule: report the maximum, flagged
        tail, pct, beyond = s[-1], 100.0, 0
    return statistics.median(times), tail, pct, beyond


def machine_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return (f"{os.cpu_count()} cores, {model}; python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def micro_timings(wl, state, seed):
    """Layer micro-timings on the workload's own inputs, via public entry points."""
    import numpy as np
    import pdmpfrag as pf

    out = {"characteristics.build_s": statistics.median(
        [state["build_s"]] + [wl.setup(seed)["build_s"] for _ in range(2)])}
    if wl.n_paths:
        out["simulate.path_rng_us_per_path"] = 1e6 / wl.n_paths * _median_time(
            lambda: [pf.path_rng(seed, i) for i in range(wl.n_paths)], 3)
    specs = list(state["specs"].values()) if "specs" in state else [state["spec"]]
    qspecs = [s for s in specs if s.Q is not None]
    if qspecs:
        rng = np.random.default_rng([seed, wl.wid, 2 ** 32])
        xs = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 2000))
        qs = qspecs[0].Q(xs) + rng.exponential(size=xs.size)
        out["monotone.inverse_batch_us_per_point"] = 1e6 / xs.size * _median_time(
            lambda: qspecs[0].Q.inverse(qs), 3)
    if "u0s" in state:
        s_ms, s_tr_ms, b_ms = [], [], []
        for (_label, model, _grid, t, n_s), u0 in zip(wl.cases, state["u0s"]):
            spec = state["specs"][model]
            ms = 1e3 * _median_time(lambda: pf.apply_S(spec, t / n_s, u0), 5)
            s_ms.append(ms)
            if spec.regime is not pf.Regime.PURE_JUMP:
                s_tr_ms.append(ms)
            b_ms.append(1e3 * _median_time(lambda: pf.apply_B(spec, u0), 5))
        out["density.apply_S_ms"] = statistics.fmean(s_ms)
        out["density.apply_S_transport_ms"] = statistics.fmean(s_tr_ms)
        out["density.apply_B_ms"] = statistics.fmean(b_ms)
    return out


def worker_check(wl, state, index):
    """Same arrays at workers=1 and workers=2; returns (identical, speedup)."""
    import numpy as np

    workers = min(WORKER_CHECK_WORKERS, os.cpu_count() or 1)
    inp = wl.make_input(state, index)
    results, best = {}, {}
    for w in (1, workers, 1, workers):
        t0 = time.perf_counter()
        results[w] = wl.run_arrays(state, inp, w)
        dt = time.perf_counter() - t0
        best[w] = min(best.get(w, dt), dt)
    same = all(np.array_equal(a, b, equal_nan=True)
               for a, b in zip(results[1], results[workers]))
    return same, best[1] / best[workers]


def traced_run(wl, state, seed, seconds, first, probes):
    """Untraced then traced loops, micro-timings, worker check; `probes` are
    the known-defect results, which count into density.mass_excess."""
    import spans

    times_u, _raw, done_u = closed_loop(wl, state, seconds / 2, first)
    tracer = spans.Tracer()
    tstate = wl.setup(seed, tracer=tracer)
    tracer.reset()  # keep only spans of traced operations
    with tracer.patched():
        times_t, _raw, done_t = closed_loop(wl, tstate, seconds / 2, first + len(done_u))
    notes = check_all(wl, state, done_u) + check_all(wl, tstate, done_t)
    attempted = len(done_u) + len(done_t)
    n = len(done_t)
    m = spans.layer_metrics(tracer, n)
    m.update(micro_timings(wl, state, seed))
    if hasattr(wl, "run_arrays"):
        same, speedup = worker_check(wl, state, first + attempted)
        attempted += 1
        m["simulate.workers2_speedup"] = speedup
        if not same:
            notes.append("worker-count check: workers=1 and workers=2 arrays differ")
    if hasattr(wl, "cells"):
        m["diagnose.cells"] = wl.cells
        m["diagnose.jumps_per_cell"] = m["simulate.jumps"] / wl.cells
    if hasattr(wl, "grid_rel_err"):
        ok = [(inp, res) for inp, res, err in done_t if err is None]
        terms = [len(res[1].term_norms) - 1 for _inp, res in ok]
        m["density.dyson_terms"] = statistics.fmean(terms)
        m["density.s_per_term"] = m["density.dyson_s"] / m["density.dyson_terms"]
        m["density.mass_excess"] = max(
            [res[0].total_mass - tstate["u0s"][inp["case"]].total_mass for inp, res in ok]
            + [res[0].total_mass - state["u0s"][inp["case"]].total_mass
               for inp, res, _note in probes if res is not None])
        m["density.grid_rel_err"] = max(
            e for e in (wl.grid_rel_err(tstate, inp, res) for inp, res in ok) if e is not None)
    p50_u, p50_t = statistics.median(times_u), statistics.median(times_t)
    m["trace.overhead_s"] = p50_t - p50_u
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    tracer.save(traces / f"{wl.name}-seed{seed}.npz")
    info = (f"untraced op_s.p50 = {p50_u:.4f} s over {len(times_u)} ops; "
            f"traced op_s.p50 = {p50_t:.4f} s over {n} ops; "
            f"{len(tracer.start)} spans -> perfbench/traces/{wl.name}-seed{seed}.npz")
    return m, attempted, notes, info


def timed_run(wl, state, seconds, first, setup_s):
    times, raw, done = closed_loop(wl, state, seconds, first)
    notes = check_all(wl, state, done)
    p50, tail, pct, beyond = op_stats(times)
    busy = sum(times)
    m = {"setup_s": setup_s, "op_s.p50": p50, "op_s.tail": tail,
         "ops_per_s": len(times) / busy,
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    paths = (f"{wl.n_paths * getattr(wl, 'cells', 1) * len(times) / busy:.6g} 1/s"
             if wl.n_paths else "n/a (no Monte Carlo paths)")
    info = (f"op_s.tail is p{pct:.2f}: {beyond} of {len(times)} samples beyond it\n"
            f"raw wall time: op_s.p50 = {statistics.median(raw):.6g} s, "
            f"op_s.tail = {op_stats(raw)[1]:.6g} s, "
            f"{len(raw) / sum(raw):.6g} ops/s\n"
            f"paths_per_s = {paths}\n"
            f"failed_frac = {len(notes) / len(done):.6g} ({len(notes)} of {len(done)} ops)")
    return m, len(done), notes, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one BLAS thread, set before numpy loads: the loop is one client on one core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pdmpfrag" / "__init__.py").is_file():
        print(f"error: no pdmpfrag sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(why)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    import_s, setup_s, setup_raw = probe_setup(wl.name, args.seed)
    state = wl.setup(args.seed)
    wl.op(state, wl.make_input(state, 0))  # warm-up, not timed
    probes = probe_known_defects(wl, state)
    if args.trace:
        m, attempted, notes, info = traced_run(wl, state, args.seed, args.seconds, 1, probes)
        m["cli.import_s"] = import_s
        declared = spec["per_layer"]
    else:
        m, attempted, notes, info = timed_run(wl, state, args.seconds, 1, setup_s)
        info = f"raw wall time: setup_s = {setup_raw:.6g} s\n" + info
        declared = spec["end_to_end"]
    metrics = {d["name"]: {"value": float(m.get(d["name"], 0.0)), "unit": d["unit"]}
               for d in declared}

    print(f"pdmpfrag benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"machine: {machine_info()}")
    print(f"commit: {git_commit()}")
    print(f"why: {why[wl.name]}")
    print("loop: closed, 1 client, workers=1, first op a warm-up (untimed); "
          f"setup_s and cli.import_s are medians of {SETUP_PROBES} fresh interpreters; "
          f"times scaled to calibrate() = {CAL_REF_S} s and "
          f"calibrate_import() = {IMPORT_CAL_REF_S} s")
    for name, v in metrics.items():
        applies = name in m
        print(f"  {name} = {v['value']:.6g} {v['unit']}" + ("" if applies else "  (n/a)"))
    print(info)
    for line in known_defect_lines(probes):
        print(line)
    for note in notes[:MAX_FAILURE_LINES]:
        print(f"FAILED: {note}")
    if len(notes) > MAX_FAILURE_LINES:
        print(f"FAILED: ... and {len(notes) - MAX_FAILURE_LINES} more")
    print(json.dumps({"correct": not notes, "attempted": attempted,
                      "failed": len(notes), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
