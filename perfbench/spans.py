"""In-memory spans recorded around calls into pdmpfrag, from outside the library.

A ``Tracer`` wraps public callables (the spec's phi, the G/Q maps, the
kernel's ``sample`` and ``fragment_cdf``, and module-level entry points looked
up at call time) so that every call records a span: name, start, end,
parent span and a count of points.  Spans stay in memory and are written
out once, at the end of the traced run.  Not thread-safe: the traced run
uses one worker.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from pdmpfrag import density, diagnose, simulate

# module-level entry points, patched where their callers look them up
ENTRY_POINTS = (
    (simulate, "simulate", "run_chains"),
    (simulate, "simulate", "estimate_explosion_cdf"),
    (diagnose, "simulate", "run_chains"),  # as f_lambda_dual looks it up
    (diagnose, "diagnose", "classify"),
    (density, "density", "dyson_phillips"),
)


def _first_size(args, kwargs):
    return int(np.size(args[0])) if args else 0


class Tracer:
    def __init__(self):
        self.names = []        # span name per name id
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; wrapped callables stay valid."""
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.points = []
        self.counters = {}
        self._stack = []

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, points=_first_size, on_result=None):
        """``fn`` with a span per call; ``points(args, kwargs)`` sizes the call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.points.append(points(args, kwargs))
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def instrument(self, spec):
        """Wrap phi (closed forms), the G/Q maps and the kernel of one spec."""
        if spec.rate.phi is None:  # a plain-callable phi is wrapped at build
            spec.phi = self.wrap("characteristics.phi", spec.phi)
        for attr in ("G", "Q"):
            if getattr(spec, attr) is not None:
                setattr(spec, attr, _TracedMap(getattr(spec, attr), self))
        kern = spec.kernel
        kern.sample = self.wrap("kernels.sample", kern.sample)
        kern.fragment_cdf = self.wrap("kernels.fragment_cdf", kern.fragment_cdf,
                                      points=lambda a, k: int(np.size(a[1])))

    def _chains_result(self, out):
        status = out[2]
        self.count("paths", status.size)
        self.count("parked", int(np.sum(status == 2)))
        self.count("budget_exhausted", int(np.sum(status == 0)))

    @contextlib.contextmanager
    def patched(self):
        """Route the library's entry points through spans while active."""
        saved = []
        try:
            for module, layer, attr in ENTRY_POINTS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if attr == "run_chains":
                    traced = self.wrap(f"{layer}.{attr}", fn,
                                       points=lambda a, k: len(a[1]),
                                       on_result=self._chains_result)
                else:
                    traced = self.wrap(f"{layer}.{attr}", fn, points=lambda a, k: 1)
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def arrays(self):
        return (np.asarray(self.name_id, dtype=np.int32),
                np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.points, dtype=np.int64))

    def save(self, path):
        nid, start, end, parent, points = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start=start, end=end, parent=parent, points=points)

    def by_name(self):
        """name -> dict(calls, points, incl_s, self_s, parent_names)."""
        nid, start, end, parent, points = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else dur
        self_t = dur - child
        parent_name = np.where(has_parent, nid[np.where(has_parent, parent, 0)], -1)
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {
                "calls": int(np.sum(sel)), "points": int(np.sum(points[sel])),
                "incl_s": float(np.sum(dur[sel])), "self_s": float(np.sum(self_t[sel])),
                "parents": {self.names[p] if p >= 0 else None: int(np.sum(sel & (parent_name == p)))
                            for p in np.unique(parent_name[sel])},
            }
        return out


class _TracedMap:
    """A G/Q map whose forward and inverse calls record spans."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._fwd = tracer.wrap("monotone.forward", inner.__call__)
        self._inv = tracer.wrap("monotone.inverse", inner.inverse)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __call__(self, x):
        return self._fwd(x)

    def inverse(self, q, *args, **kwargs):
        return self._inv(q, *args, **kwargs)


def layer_metrics(tracer, n_ops):
    """Per-operation layer splits from the recorded spans."""
    s = tracer.by_name()
    empty = {"calls": 0, "points": 0, "incl_s": 0.0, "self_s": 0.0, "parents": {}}

    def g(name):
        return s.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    inv, fwd = g("monotone.inverse"), g("monotone.forward")
    phi, samp, fcdf = g("characteristics.phi"), g("kernels.sample"), g("kernels.fragment_cdf")
    chains, dyson, cls = g("simulate.run_chains"), g("density.dyson_phillips"), g("diagnose.classify")
    est = g("simulate.estimate_explosion_cdf")
    c = tracer.counters
    per = 1.0 / n_ops
    return {
        "monotone.inverse_s": inv["incl_s"] * per,
        "monotone.inverse_points": inv["points"] * per,
        "monotone.inverse_us_per_point": 1e6 * ratio(inv["incl_s"], inv["points"]),
        "monotone.forward_s": fwd["incl_s"] * per,
        "monotone.forward_points": fwd["points"] * per,
        "monotone.self_s": (inv["self_s"] + fwd["self_s"]) * per,
        "characteristics.phi_s": phi["incl_s"] * per,
        "characteristics.phi_points": phi["points"] * per,
        "kernels.sample_s": samp["incl_s"] * per,
        "kernels.sample_points": samp["points"] * per,
        "kernels.fragment_cdf_s": fcdf["incl_s"] * per,
        "kernels.fragment_cdf_calls": fcdf["calls"] * per,
        "simulate.run_chains_s": chains["incl_s"] * per,
        "simulate.run_chains_calls": chains["calls"] * per,
        "simulate.jumps": samp["points"] * per,
        "simulate.jumps_per_s": ratio(samp["points"], chains["incl_s"]),
        "simulate.self_s": (chains["self_s"] + est["self_s"]) * per,
        "simulate.frac_parked": ratio(c.get("parked", 0), c.get("paths", 0)),
        "simulate.frac_budget_exhausted": ratio(c.get("budget_exhausted", 0), c.get("paths", 0)),
        "density.dyson_s": dyson["incl_s"] * per,
        "density.self_s": dyson["self_s"] * per,
        "diagnose.classify_s": cls["incl_s"] * per,
        "diagnose.self_s": cls["self_s"] * per,
        "diagnose.run_chains_calls": chains["parents"].get("diagnose.classify", 0) * per,
        "trace.spans_per_op": len(tracer.start) * per,
    }
