"""Batch experiment runner.

Loads a structured YAML config describing a model and an action, dispatches
to the library, and writes CSV artifacts plus a manifest (config hash, tool,
Python, numpy and scipy versions, the model's divergence flags, stage wall
times, output checksums).  A key the config schema does not know is a config
error, not a silent default.  All randomness flows from the single config
seed, so re-running a config reproduces byte-identical CSV bodies.

Exit codes: 0 ok, 2 config error, 3 model error, 4 numerical non-convergence.
"""

from __future__ import annotations

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
from .characteristics import Regime, SemiflowSpec, RateSpec, build_characteristics
from .density import GridDensity, LogGrid, dyson_phillips
from .diagnose import classify, classify_power_family
from .errors import ConfigError, ModelError, NumericalError, OutOfRegime
from .kernels import HomogeneousKernel, PowerLawKernel, SeparableKernel
from .monotone import gauss_panels
from .oracles import TauOracle, exact_mass, explosion_cdf
from .simulate import estimate_explosion_cdf, simulate_chain

_REGIMES = {"pure_jump": Regime.PURE_JUMP, "growth": Regime.GROWTH,
            "decay": Regime.DECAY}


# -- config ------------------------------------------------------------------

def _mapping(parent, key, where, allowed=None):
    """parent[key] as a mapping, {} when absent or empty; a key outside
    ``allowed`` (when given) is a ConfigError."""
    val = parent.get(key)
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(val).__name__}")
    if allowed is not None:
        unknown = sorted(map(str, set(val) - set(allowed)))
        if unknown:
            raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}"
                              f"; allowed: {', '.join(sorted(allowed))}")
    return val


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
    _mapping({"config": cfg}, "config", "config",
             ("action", "model", "numeric", "output"))
    for key in ("model", "numeric", "output"):
        _mapping(cfg, key, key)
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
    if np.any(np.diff(xs) <= 0) or np.any(ys < 0):
        raise ConfigError(f"{what} table must have increasing x and values >= 0")
    lx = np.log(xs)

    def f(x):
        return np.interp(np.log(np.asarray(x, dtype=float)), lx, ys)

    return f


def build_model(cfg):
    """The CharacteristicsSpec of the config's model section."""
    model = _mapping(cfg, "model", "model", ("regime", "g", "phi", "kernel"))
    regime_name = model.get("regime")
    if regime_name not in _REGIMES:
        raise ConfigError(f"model.regime must be one of {sorted(_REGIMES)}, "
                          f"got {regime_name!r}")
    regime = _REGIMES[regime_name]

    beta = _mapping(model, "g", "model.g", ("beta",)).get("beta")
    if regime is not Regime.PURE_JUMP and beta is None:
        raise ConfigError("model.g.beta is required outside the pure-jump regime")
    semiflow = SemiflowSpec(regime=regime,
                            power_beta=None if beta is None else float(beta))

    phi_cfg = _mapping(model, "phi", "model.phi", ("a", "alpha", "table"))
    if "table" in phi_cfg:
        rate = RateSpec(phi=_table_callable(phi_cfg["table"], "model.phi"))
    else:
        if "a" not in phi_cfg or "alpha" not in phi_cfg:
            raise ConfigError("model.phi needs 'a' and 'alpha' (or 'table')")
        rate = RateSpec(power=(float(phi_cfg["a"]), float(phi_cfg["alpha"])))

    k_cfg = _mapping(model, "kernel", "model.kernel", ("family", "nu", "table"))
    family = k_cfg.get("family", "power")
    if family == "power":
        kernel = PowerLawKernel(float(k_cfg.get("nu", 0.0)))
    elif family in ("homogeneous", "separable"):
        if "table" not in k_cfg:
            raise ConfigError(f"model.kernel family {family!r} needs a 'table'")
        h = _table_callable(k_cfg["table"], "model.kernel")
        kernel = (HomogeneousKernel(h) if family == "homogeneous"
                  else SeparableKernel(h))
    else:
        raise ConfigError(f"unknown kernel family {family!r}")

    return build_characteristics(semiflow=semiflow, rate=rate, kernel=kernel)


def _numeric(cfg, key, default):
    return (cfg.get("numeric") or {}).get(key, default)


def _numeric_mapping(cfg, key, allowed):
    return _mapping(cfg.get("numeric") or {}, key, f"numeric.{key}", allowed)


def _grid_from(cfg):
    g = _numeric_mapping(cfg, "grid", ("x_min", "x_max", "n_cells"))
    return LogGrid(float(g.get("x_min", 1e-6)), float(g.get("x_max", 1e2)),
                   int(g.get("n_cells", 384)))


def _u0_from(cfg, grid):
    u0 = _numeric_mapping(cfg, "u0", ("lo", "hi"))
    return GridDensity.uniform_in_m(grid, float(u0.get("lo", 1.0)),
                                    float(u0.get("hi", 2.0)))


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


def _finish(out_dir, cfg_path, files, wall_s, divergence):
    """Write manifest.json: config and output digests, library versions, the
    model's divergence flags (asGQ/asGQd for G and Q, or phi > 0 for pure
    jump) and the wall time of each stage (timings live here only, so the
    CSV bodies stay byte-identical across reruns)."""
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    manifest = {
        "config": str(cfg_path),
        "config_sha256": digest,
        "divergence": divergence,
        "tool_version": __version__,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_s": wall_s,
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

def _action_simulate(cfg, spec, out, seed, workers):
    n_paths = int(_numeric(cfg, "n_paths", 10_000))
    n_max = int(_numeric(cfg, "n_max", 2_000))
    x0 = float(_numeric(cfg, "x0", 1.0))
    ts = [float(t) for t in _numeric(cfg, "t_values", [0.25, 0.5, 1.0, 2.0])]
    files = []
    rows = []
    for k in range(min(n_paths, 10)):
        tr = simulate_chain(spec, x0, seed=seed, path_id=k, n_max=min(n_max, 200))
        rows += [(k, n, float(t), float(x)) for n, (t, x) in
                 enumerate(zip(tr.jump_times, tr.positions))]
    files.append(_write_csv(out, "trajectories.csv", "path_id,n,t_n,xi_n", rows))
    orc = _tau_oracle(spec)
    rows = []
    for t in ts:
        est = estimate_explosion_cdf(spec, x0, t, n_paths, n_max,
                                     seed=seed, workers=workers)
        oracle_val = explosion_cdf(orc, t, x0) if orc is not None else float("nan")
        rows.append((float(t), est.value, est.std_error, oracle_val,
                     est.diagnostics["value_at_half_budget"],
                     est.diagnostics["frac_budget_exhausted"]))
    files.append(_write_csv(
        out, "explosion_cdf.csv", "t,estimate,se,oracle,value_at_half_budget,"
        "frac_budget_exhausted", rows))
    return files


def _action_evolve(cfg, spec, out, seed, workers):
    grid = _grid_from(cfg)
    u0 = _u0_from(cfg, grid)
    ts = [float(t) for t in _numeric(cfg, "t_values", [0.25, 0.5, 1.0, 2.0])]
    dy = _numeric_mapping(cfg, "dyson", ("N", "n_s"))
    N = int(dy.get("N", 60))
    tol = float(_numeric(cfg, "tolerance", 0.01))
    files = []
    rows = []
    orc = _tau_oracle(spec)
    budget_hit = False
    for t in ts:
        n_s = int(dy.get("n_s", max(64, int(32 * max(1.0, t)))))
        res, trace = dyson_phillips(spec, t, u0, N=N, n_s=n_s)
        if not trace.converged:
            budget_hit = True
        oracle_val = float("nan")
        if orc is not None:
            try:
                oracle_val = exact_mass(orc, t, u0)
            except OutOfRegime:
                pass
        rows.append((float(t), res.total_mass, res.grid_mass,
                     res.sub_grid_mass, res.super_grid_mass,
                     u0.total_mass - res.total_mass, oracle_val, tol,
                     len(trace.term_norms), float(trace.term_norms[-1]),
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


def _action_classify(cfg, spec, out, seed, workers):
    lams = [float(l) for l in _numeric(cfg, "lambdas", [1.0, 0.1, 0.01])]
    pr = _numeric_mapping(cfg, "probes", ("lo", "hi", "n"))
    probes = np.geomspace(float(pr.get("lo", 1e-3)), float(pr.get("hi", 1e3)),
                          int(pr.get("n", 7)))
    budgets = {"n_paths": int(_numeric(cfg, "n_paths", 400)),
               "n_iter": int(_numeric(cfg, "n_iter", 400))}
    mc = classify(spec, lams, probes, budgets, seed=seed, workers=workers)
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
        regime = None if spec.regime is Regime.PURE_JUMP else spec.regime.value
        try:
            cf = classify_power_family(power[1], beta, power[0], kernel.h,
                                       regime=regime)
            rows.append(("ClosedFormTable", cf.verdict.value, nan, cf.notes))
        except OutOfRegime as exc:
            rows.append(("ClosedFormTable", "OutOfRegime", nan, str(exc)))
    files.append(_write_csv(
        out, "verdict.csv", ",".join(("method", "verdict") + keys + ("notes",)),
        [(m, v, *d, '"' + n + '"') for m, v, d, n in rows]))
    return files


def _action_audit(cfg, spec, out, seed, workers):
    ys = [float(y) for y in _numeric(cfg, "y_values", [0.5, 1.0, 2.0, 5.0, 10.0])]
    kernel = spec.kernel
    rows = []
    for y in ys:
        edges = np.geomspace(y * 1e-12, y, 2049)
        val = float(np.sum(gauss_panels(
            lambda x: kernel.b(x, y) * x, edges[:-1], edges[1:])))
        resid = abs(val - y) / y
        rows.append((float(y), val / y, resid, "pass" if resid < 1e-8 else "FAIL"))
    files = [_write_csv(out, "kernel_normalization.csv",
                        "y,mass_over_y,residual,status", rows)]
    # monotone-map roundtrips for the derived G and Q
    probes = np.geomspace(spec.domain[0] * 1e2, spec.domain[1] * 1e-2, 31)
    rows = []
    for name, m in (("G", spec.G), ("Q", spec.Q)):
        if m is None:
            continue
        err = m.roundtrip_error(probes)
        rows.append((name, float(err), "pass" if err < 1e-8 else "FAIL"))
    files.append(_write_csv(out, "map_roundtrip.csv",
                            "map,roundtrip_error,status", rows))
    if any(r[-1] == "FAIL" for r in rows):
        raise NumericalError("map roundtrip accuracy below tolerance")
    return files


def _action_oracle(cfg, spec, out, seed, workers):
    orc = _tau_oracle(spec)
    if orc is None:
        raise ModelError("the oracle action needs the pure-fragmentation power "
                         "family: regime pure_jump, phi(x) = a x^alpha with "
                         "alpha < 0 and a power-law kernel")
    x0 = float(_numeric(cfg, "x0", 1.0))
    ts = [float(t) for t in _numeric(cfg, "t_values", [0.25, 0.5, 1.0, 2.0, 4.0])]
    grid = _grid_from(cfg)
    u0 = _u0_from(cfg, grid)
    rows = []
    for t in ts:
        q = orc.time_scale(x0) * t
        try:
            em = exact_mass(orc, t, u0)
        except OutOfRegime:
            em = float("nan")
        rows.append((float(t), float(q), explosion_cdf(orc, t, x0), em))
    return [_write_csv(out, "oracle.csv",
                       "t,q,explosion_cdf_at_x0,exact_mass_u0", rows)]


# each action with the numeric keys it reads, besides seed and workers
_ACTIONS = {
    "simulate": (_action_simulate, ("n_paths", "n_max", "x0", "t_values")),
    "evolve": (_action_evolve, ("grid", "u0", "t_values", "dyson", "tolerance")),
    "classify": (_action_classify, ("lambdas", "probes", "n_paths", "n_iter")),
    "audit": (_action_audit, ("y_values",)),
    "oracle": (_action_oracle, ("x0", "t_values", "grid", "u0")),
}


def run(action, config_path, out_dir=None, seed=None, workers=None):
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
    act, keys = _ACTIONS[action]
    _mapping(cfg, "numeric", "numeric", ("seed", "workers") + keys)
    if seed is None:
        seed = _numeric(cfg, "seed", None)
        if seed is None:
            raise ConfigError("numeric.seed is required (or pass --seed)")
    out_cfg = _mapping(cfg, "output", "output", ("dir",))
    out = Path(out_dir if out_dir is not None else out_cfg.get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    try:
        seed = int(seed)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"the seed must lie in [0, 2**64), got {seed}")
        workers = int(_numeric(cfg, "workers", 1) if workers is None
                      else workers)
        t0 = time.perf_counter()
        spec = build_model(cfg)
        t1 = time.perf_counter()
        files = act(cfg, spec, out, seed, workers)
        wall_s = {"build_model": t1 - t0, "action": time.perf_counter() - t1}
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad value for {action}: {exc}") from exc
    _finish(out, config_path, files, wall_s, spec.divergence)
    return files


def _invoke(action, config, out, workers, seed):
    try:
        files = run(action, config, out, seed=seed, workers=workers)
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
    fn = click.option("--workers", "-w", type=int, default=None,
                      help="Worker threads (overrides numeric.workers).")(fn)
    fn = click.option("--out", "-o", type=click.Path(), default=None,
                      help="Output directory (overrides output.dir).")(fn)
    fn = click.option("--config", "-c", type=click.Path(), required=True,
                      help="YAML experiment config.")(fn)
    return fn


for _name, _help in (
        ("simulate", "Sample jump chains and explosion-time estimates."),
        ("evolve", "Evolve a density by the truncated Dyson-Phillips sum."),
        ("classify", "Classify the semigroup (Monte Carlo + closed form)."),
        ("audit", "Check kernel normalization and map roundtrips."),
        ("oracle", "Tabulate the closed-form gamma-law ground truth.")):
    def _mk(name):
        @_common
        def cmd(config, out, workers, seed):
            _invoke(name, config, out, workers, seed)
        cmd.__name__ = name
        cmd.__doc__ = _help
        return cmd
    main.command(name=_name)(_mk(_name))


if __name__ == "__main__":
    main()
