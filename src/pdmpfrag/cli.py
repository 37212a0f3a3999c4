"""Batch experiment runner.

Loads a structured YAML config describing a model and an action, dispatches
to the library, and writes CSV artifacts plus a manifest (config hash, tool,
Python, numpy and scipy versions, the model's divergence flags, stage wall
times, output checksums).  Two tables are the one source of config keys and
their defaults: ``_MODEL`` for the model section and ``_ACTIONS`` for each
action's numeric section.  ``_section`` reads every section against them,
and a key they do not know is a config error, not a silent default.  All
randomness flows from the single config seed, so re-running a config
reproduces byte-identical CSV bodies.

Exit codes: 0 ok, 2 config error, 3 model error, 4 numerical non-convergence.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import click
import numpy as np
import scipy
import yaml

from . import __version__
from .characteristics import (Regime, SemiflowSpec, RateSpec, _check_states,
                              build_characteristics)
from .density import GridDensity, LogGrid, dyson_phillips
from .diagnose import classify, classify_power_family
from .errors import ConfigError, ModelError, NumericalError, OutOfRegime
from .kernels import HomogeneousKernel, PowerLawKernel, SeparableKernel
from .monotone import gauss_panels
from .oracles import TauOracle, exact_mass, explosion_cdf
from .simulate import estimate_explosion_cdf, simulate_chain


# -- config ------------------------------------------------------------------

# A schema maps each key of a config section to its default.  A mapping
# default is a nested section, read the same way.  _UNSET marks a key with
# no default: a missing key reads as _UNSET, an explicit null as None.
_UNSET = object()

_MODEL = {"regime": None, "g": {"beta": None},
          "phi": {"a": _UNSET, "alpha": _UNSET, "table": _UNSET},
          "kernel": {"family": "power", "nu": 0.0, "table": _UNSET}}


def _section(parent, key, where, schema):
    """parent[key] as a mapping (absent or null reads as empty) with every key
    of ``schema``, a missing one set to its default; a key outside
    ``schema`` is a ConfigError."""
    val = {} if parent.get(key) is None else parent[key]
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(val).__name__}")
    unknown = sorted(map(str, set(val) - set(schema)))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}"
                          f"; allowed: {', '.join(sorted(schema))}")
    return {k: _section(val, k, f"{where}.{k}", d) if isinstance(d, dict)
            else val.get(k, d) for k, d in schema.items()}


def _integer(value, key):
    """A count or seed of the config as an int: an integral float such as
    400.0 reads as 400, and anything else is a ConfigError naming its key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError("config must be a mapping with a 'model' section")
    _section({"config": cfg}, "config", "config",
             dict.fromkeys(("action", "model", "numeric", "output")))
    return cfg


def _table_callable(path, what):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} table file not found: {path}")
    try:
        data = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{what} table is not numeric: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ConfigError(f"{what} table needs two columns and two data rows")
    xs, ys = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(data[:, :2])) or xs[0] <= 0:
        raise ConfigError(f"{what} table must have finite entries and x > 0")
    if np.any(np.diff(xs) <= 0) or np.any(ys < 0):
        raise ConfigError(f"{what} table must have increasing x and values >= 0")
    lx = np.log(xs)

    def f(x):
        return np.interp(np.log(np.asarray(x, dtype=float)), lx, ys)

    return f


def build_model(cfg):
    """The CharacteristicsSpec of the config's model section."""
    model = _section(cfg, "model", "model", _MODEL)
    try:
        regime = Regime(model["regime"])
    except ValueError:
        raise ConfigError("model.regime must be one of "
                          f"{sorted(r.value for r in Regime)}, "
                          f"got {model['regime']!r}") from None

    beta = model["g"]["beta"]
    if regime is Regime.PURE_JUMP and beta is not None:
        raise ConfigError("model.g is not read in the pure-jump regime (no drift)")
    if regime is not Regime.PURE_JUMP and beta is None:
        raise ConfigError("model.g.beta is required outside the pure-jump regime")
    semiflow = SemiflowSpec(regime=regime,
                            power_beta=None if beta is None else float(beta))

    phi = model["phi"]
    if phi["table"] is not _UNSET:
        rate = RateSpec(phi=_table_callable(phi["table"], "model.phi"))
    else:
        if phi["a"] is _UNSET or phi["alpha"] is _UNSET:
            raise ConfigError("model.phi needs 'a' and 'alpha' (or 'table')")
        rate = RateSpec(power=(float(phi["a"]), float(phi["alpha"])))

    k_cfg = model["kernel"]
    family = k_cfg["family"]
    if family == "power":
        kernel = PowerLawKernel(float(k_cfg["nu"]))
    elif family in ("homogeneous", "separable"):
        if k_cfg["table"] is _UNSET:
            raise ConfigError(f"model.kernel family {family!r} needs a 'table'")
        h = _table_callable(k_cfg["table"], "model.kernel")
        kernel = (HomogeneousKernel(h) if family == "homogeneous"
                  else SeparableKernel(h))
    else:
        raise ConfigError(f"unknown kernel family {family!r}")

    return build_characteristics(semiflow=semiflow, rate=rate, kernel=kernel)


def _initial_density(num):
    """The numeric.u0 density, uniform in m on [lo, hi], on the numeric.grid."""
    g, u0 = num["grid"], num["u0"]
    grid = LogGrid(float(g["x_min"]), float(g["x_max"]),
                   _integer(g["n_cells"], "numeric.grid.n_cells"))
    return GridDensity.uniform_in_m(grid, float(u0["lo"]), float(u0["hi"]))


# -- artifact helpers ----------------------------------------------------------

def _write_csv(out_dir, name, header, rows):
    """Write rows; floats as their shortest round-trip repr, so distinct
    values (such as strictly increasing jump times) stay distinct."""
    path = Path(out_dir) / name
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row) + "\n")
    return path


def _finish(out_dir, cfg_path, files, wall_s, divergence, work):
    """Write manifest.json: config and output digests, library versions, the
    model's divergence flags (asGQ/asGQd for G and Q, or phi > 0 for pure
    jump), the action's work counters and the wall time of each stage
    (timings live here only, so the CSV bodies stay byte-identical across
    reruns)."""
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    manifest = {
        "config": str(cfg_path),
        "config_sha256": digest,
        "divergence": divergence,
        "tool_version": __version__,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_s": wall_s,
        "work": work,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files},
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tau_oracle(spec):
    """The gamma oracle of pure fragmentation (no drift) with phi(x) = a x^alpha,
    alpha < 0, and a power kernel; None for any other model."""
    power = spec.rate.power
    if spec.regime is not Regime.PURE_JUMP or power is None or power[1] >= 0 \
            or not isinstance(spec.kernel, PowerLawKernel):
        return None
    return TauOracle(nu=spec.kernel.nu, gamma=-power[1], a=power[0])


# -- actions -------------------------------------------------------------------

def _action_simulate(num, spec, out, seed, work):
    n_paths = _integer(num["n_paths"], "numeric.n_paths")
    n_max = _integer(num["n_max"], "numeric.n_max")
    x0 = float(num["x0"])
    ts = [float(t) for t in num["t_values"]]
    rows = []
    for k in range(min(n_paths, 10)):
        tr = simulate_chain(spec, x0, seed=seed, path_id=k, n_max=min(n_max, 200))
        rows += [(k, n, float(t), float(x)) for n, (t, x) in
                 enumerate(zip(tr.jump_times, tr.positions))]
    files = [_write_csv(out, "trajectories.csv", "path_id,n,t_n,xi_n", rows)]
    orc = _tau_oracle(spec)
    ests = estimate_explosion_cdf(spec, x0, ts, n_paths, n_max, seed=seed)
    rows = [(t, est.value, est.std_error,
             explosion_cdf(orc, t, x0) if orc is not None else float("nan"),
             est.diagnostics["value_at_half_budget"],
             est.diagnostics["frac_budget_exhausted"])
            for t, est in zip(ts, ests)]
    return files + [_write_csv(
        out, "explosion_cdf.csv", "t,estimate,se,oracle,value_at_half_budget,"
        "frac_budget_exhausted", rows)]


def _action_evolve(num, spec, out, seed, work):
    u0 = _initial_density(num)
    grid = u0.grid
    if not u0.grid_mass > 0.0:
        raise ConfigError("numeric.u0 puts no mass on the grid "
                          f"[{grid.edges[0]:g}, {grid.edges[-1]:g}]")
    ts = [float(t) for t in num["t_values"]]
    dyson = num["dyson"]
    N = _integer(dyson["N"], "numeric.dyson.N")
    tol = float(num["tolerance"])
    files = []
    rows = []
    orc = _tau_oracle(spec)
    budget_hit = False
    # per t: the time steps, the Dyson levels run and the cells they ran on
    work["dyson"] = []
    for t in ts:
        # the default n_s = max(64, 32 t) only for a finite t: any other t
        # meets dyson_phillips' check
        n_s = (_integer(dyson["n_s"], "numeric.dyson.n_s")
               if dyson["n_s"] is not _UNSET
               else max(64, int(32 * t)) if 1.0 < t < np.inf else 64)
        res, trace = dyson_phillips(spec, t, u0, N=N, n_s=n_s)
        work["dyson"].append({"t": t, "n_s": n_s,
                              "levels": len(trace.term_norms) - 1,
                              "cells": trace.cells})
        if not trace.converged:
            budget_hit = True
        rows.append((t, res.total_mass, res.grid_mass,
                     res.sub_grid_mass, res.super_grid_mass,
                     u0.total_mass - res.total_mass,
                     exact_mass(orc, t, u0) if orc is not None
                     else float("nan"),
                     tol, len(trace.term_norms), float(trace.term_norms[-1]),
                     int(trace.converged)))
        files.append(_write_csv(
            out, f"density_t{t:g}.csv", "node,cell_mass",
            list(zip(map(float, grid.nodes), map(float, res.masses)))))
    files.append(_write_csv(
        out, "mass_vs_t.csv",
        "t,mass_total,mass_grid,sub_grid,super_grid,unaccounted,oracle,"
        "tolerance,n_terms,tail,converged", rows))
    if budget_hit:
        raise NumericalError("Dyson-Phillips expansion hit the term budget "
                             "before the tail criterion")
    return files


def _action_classify(num, spec, out, seed, work):
    lams = [float(l) for l in num["lambdas"]]
    pr = num["probes"]
    probes = np.geomspace(float(pr["lo"]), float(pr["hi"]),
                          _integer(pr["n"], "numeric.probes.n"))
    budgets = {k: _integer(num[k], f"numeric.{k}")
               for k in ("n_paths", "n_iter")}
    mc = classify(spec, lams, probes, budgets, seed=seed)
    files = []
    ev_path = Path(out) / "evidence.csv"
    mc.to_csv(ev_path)
    files.append(ev_path)
    # the Monte Carlo verdict's thresholds and deciding extremes; the closed
    # form table has none
    keys = tuple(mc.decision)
    nan = (float("nan"),) * len(keys)
    rows = [("MonteCarloLaplace", mc.verdict.value,
             tuple(mc.decision.values()), mc.notes)]
    power, beta, kernel = spec.rate.power, spec.semiflow.power_beta, spec.kernel
    if power is not None and beta is not None and \
            isinstance(kernel, PowerLawKernel):
        try:
            cf = classify_power_family(power[1], beta, power[0], kernel.h,
                                       regime=spec.regime.value)
            rows.append(("ClosedFormTable", cf.verdict.value, nan, cf.notes))
        except OutOfRegime as exc:
            rows.append(("ClosedFormTable", "OutOfRegime", nan, str(exc)))
    files.append(_write_csv(
        out, "verdict.csv", ",".join(("method", "verdict") + keys + ("notes",)),
        [(m, v, *d, '"' + n + '"') for m, v, d, n in rows]))
    return files


def _action_audit(num, spec, out, seed, work):
    ys = [float(y) for y in num["y_values"]]
    _check_states(ys)  # parents in (0, inf), before any quadrature
    rows = []
    for y in ys:
        edges = np.geomspace(y * 1e-12, y, 2049)
        val = float(np.sum(gauss_panels(
            lambda x: spec.kernel.b(x, y) * x, edges[:-1], edges[1:]))
            + y * spec.kernel.fragment_cdf(y, edges[0]))  # the mass below
        resid = abs(val - y) / y
        rows.append((y, val / y, resid, "pass" if resid < 1e-8 else "FAIL"))
    files = [_write_csv(out, "kernel_normalization.csv",
                        "y,mass_over_y,residual,status", rows)]
    # monotone-map roundtrips for the derived G and Q
    probes = np.geomspace(spec.domain[0] * 1e2, spec.domain[1] * 1e-2, 31)
    trips = []
    for name, m in (("G", spec.G), ("Q", spec.Q)):
        if m is None:
            continue
        err = m.roundtrip_error(probes)
        trips.append((name, float(err), "pass" if err < 1e-8 else "FAIL"))
    files.append(_write_csv(out, "map_roundtrip.csv",
                            "map,roundtrip_error,status", trips))
    if any(r[-1] == "FAIL" for r in rows + trips):
        raise NumericalError("kernel mass or map roundtrip off tolerance")
    return files


def _action_oracle(num, spec, out, seed, work):
    orc = _tau_oracle(spec)
    if orc is None:
        raise ModelError("the oracle action needs the pure-fragmentation power "
                         "family: regime pure_jump, phi(x) = a x^alpha with "
                         "alpha < 0 and a power-law kernel")
    x0 = float(num["x0"])
    ts = [float(t) for t in num["t_values"]]
    u0 = _initial_density(num)
    rows = [(t, float(orc.time_scale(x0) * t), explosion_cdf(orc, t, x0),
             exact_mass(orc, t, u0)) for t in ts]
    return [_write_csv(out, "oracle.csv",
                       "t,q,explosion_cdf_at_x0,exact_mass_u0", rows)]


_T_VALUES = (0.25, 0.5, 1.0, 2.0)
_DENSITY = {"grid": {"x_min": 1e-6, "x_max": 1e2, "n_cells": 384},
            "u0": {"lo": 1.0, "hi": 2.0}}

# each action: its function, its subcommand help and the schema of its
# numeric section besides seed; the function gets the filled section and
# may record work counters in its ``work`` dict, which goes to the manifest
_ACTIONS = {
    "simulate": (_action_simulate,
                 "Sample jump chains and explosion-time estimates.",
                 {"n_paths": 10_000, "n_max": 2_000, "x0": 1.0,
                  "t_values": _T_VALUES}),
    "evolve": (_action_evolve,
               "Evolve a density by the truncated Dyson-Phillips sum.",
               {**_DENSITY, "t_values": _T_VALUES,
                "dyson": {"N": 60, "n_s": _UNSET}, "tolerance": 0.01}),
    "classify": (_action_classify,
                 "Classify the semigroup (Monte Carlo + closed form).",
                 {"lambdas": (1.0, 0.1, 0.01),
                  "probes": {"lo": 1e-3, "hi": 1e3, "n": 7},
                  "n_paths": 400, "n_iter": 400}),
    "audit": (_action_audit, "Check kernel normalization and map roundtrips.",
              {"y_values": (0.5, 1.0, 2.0, 5.0, 10.0)}),
    "oracle": (_action_oracle,
               "Tabulate the closed-form gamma-law ground truth.",
               {"x0": 1.0, "t_values": _T_VALUES + (4.0,), **_DENSITY}),
}


def run(action, config_path, out_dir=None, seed=None):
    """Execute one configured action; returns the artifact paths.

    An argument error (ValueError, TypeError, OverflowError) raised while
    building the model or running the action is a bad config value and is
    raised as ConfigError.
    """
    cfg = load_config(config_path)
    declared = cfg.get("action")
    if declared is not None and declared != action:
        raise ConfigError(f"config field 'action' says {declared!r} but the "
                          f"{action!r} subcommand was invoked")
    act, _, numeric = _ACTIONS[action]
    num = _section(cfg, "numeric", "numeric", {"seed": None, **numeric})
    seed = num["seed"] if seed is None else seed
    if seed is None:
        raise ConfigError("numeric.seed is required (or pass --seed)")
    out_cfg = _section(cfg, "output", "output", {"dir": "."})
    try:
        out = Path(out_dir if out_dir is not None else out_cfg["dir"])
        out.mkdir(parents=True, exist_ok=True)
        seed = _integer(seed, "numeric.seed")
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"the seed must lie in [0, 2**64), got {seed}")
        t0 = time.perf_counter()
        spec = build_model(cfg)
        t1 = time.perf_counter()
        work = {}
        files = act(num, spec, out, seed, work)
        wall_s = {"build_model": t1 - t0, "action": time.perf_counter() - t1}
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad value for {action}: {exc}") from exc
    _finish(out, config_path, files, wall_s, spec.divergence, work)
    return files


def _invoke(action, config, out, seed):
    try:
        files = run(action, config, out, seed=seed)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except ModelError as exc:
        click.echo(f"model error: {exc}", err=True)
        sys.exit(3)
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(4)
    for f in files:
        click.echo(str(f))


@click.group()
@click.version_option(__version__)
def main():
    """Minimal-PDMP experiment runner."""


def _common(fn):
    fn = click.option("--seed", "-s", type=int, default=None,
                      help="Override numeric.seed.")(fn)
    fn = click.option("--out", "-o", type=click.Path(), default=None,
                      help="Output directory (overrides output.dir).")(fn)
    fn = click.option("--config", "-c", type=click.Path(), required=True,
                      help="YAML experiment config.")(fn)
    return fn


for _name, (_, _help, _) in _ACTIONS.items():
    main.command(name=_name, help=_help)(
        _common(functools.partial(_invoke, _name)))


if __name__ == "__main__":
    main()
