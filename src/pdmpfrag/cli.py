"""Batch experiment runner.

Loads a structured YAML config describing a model and an action, dispatches
to the library, and writes CSV artifacts plus a manifest (config hash, tool
version, output checksums).  All randomness flows from the single config
seed, so re-running a config reproduces byte-identical CSV bodies.

Exit codes: 0 ok, 2 config error, 3 model error, 4 numerical non-convergence.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .characteristics import Regime, SemiflowSpec, RateSpec, build_characteristics
from .density import GridDensity, LogGrid, dyson_phillips
from .diagnose import classify, classify_power_family
from .errors import ConfigError, ModelError, NumericalError, OutOfRegime
from .kernels import HomogeneousKernel, PowerLawKernel, SeparableKernel
from .monotone import gauss_panels
from .oracles import TauOracle, exact_mass, explosion_cdf
from .simulate import estimate_explosion_cdf, estimate_survival_mass, simulate_chain

_REGIMES = {"pure_jump": Regime.PURE_JUMP, "growth": Regime.GROWTH,
            "decay": Regime.DECAY}


# -- config ------------------------------------------------------------------

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
    return cfg


def _table_callable(path, what):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} table file not found: {path}")
    data = np.loadtxt(p, delimiter=",", skiprows=1)
    xs, ys = data[:, 0], data[:, 1]
    if np.any(np.diff(xs) <= 0) or np.any(ys < 0):
        raise ConfigError(f"{what} table must have increasing x and values >= 0")
    lx = np.log(xs)

    def f(x):
        return np.interp(np.log(np.asarray(x, dtype=float)), lx, ys)

    return f


def build_model(cfg):
    model = cfg.get("model", {})
    regime_name = model.get("regime")
    if regime_name not in _REGIMES:
        raise ConfigError(f"model.regime must be one of {sorted(_REGIMES)}, "
                          f"got {regime_name!r}")
    regime = _REGIMES[regime_name]

    g_cfg = model.get("g", {}) or {}
    beta = g_cfg.get("beta")
    if regime is not Regime.PURE_JUMP and beta is None:
        raise ConfigError("model.g.beta is required outside the pure-jump regime")
    semiflow = SemiflowSpec(regime=regime,
                            power_beta=None if beta is None else float(beta))

    phi_cfg = model.get("phi", {}) or {}
    if "table" in phi_cfg:
        rate = RateSpec(phi=_table_callable(phi_cfg["table"], "model.phi"))
        power = None
    else:
        if "a" not in phi_cfg or "alpha" not in phi_cfg:
            raise ConfigError("model.phi needs 'a' and 'alpha' (or 'table')")
        power = (float(phi_cfg["a"]), float(phi_cfg["alpha"]))
        rate = RateSpec(power=power)

    k_cfg = model.get("kernel", {}) or {}
    family = k_cfg.get("family", "power")
    if family == "power":
        kernel = PowerLawKernel(float(k_cfg.get("nu", 0.0)))
    elif family == "homogeneous":
        kernel = HomogeneousKernel(_table_callable(k_cfg["table"],
                                                   "model.kernel"))
    elif family == "separable":
        kernel = SeparableKernel(_table_callable(k_cfg["table"],
                                                 "model.kernel"))
    else:
        raise ConfigError(f"unknown kernel family {family!r}")

    spec = build_characteristics(semiflow=semiflow, rate=rate, kernel=kernel)
    return spec, power, k_cfg


def _numeric(cfg, key, default):
    return (cfg.get("numeric") or {}).get(key, default)


def _grid_from(cfg):
    g = _numeric(cfg, "grid", {}) or {}
    return LogGrid(float(g.get("x_min", 1e-6)), float(g.get("x_max", 1e2)),
                   int(g.get("n_cells", 384)))


def _u0_from(cfg, grid):
    u0 = _numeric(cfg, "u0", {}) or {}
    return GridDensity.uniform_in_m(grid, float(u0.get("lo", 1.0)),
                                    float(u0.get("hi", 2.0)))


# -- artifact helpers ----------------------------------------------------------

def _write_csv(out_dir, name, header, rows):
    path = Path(out_dir) / name
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


def _finish(out_dir, cfg_path, files):
    digest = hashlib.sha256(Path(cfg_path).read_bytes()).hexdigest()
    manifest = {
        "config": str(cfg_path),
        "config_sha256": digest,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files},
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tau_oracle(power, k_cfg):
    """The gamma oracle for phi(x) = a x^alpha with alpha < 0 and a power kernel."""
    if power is None or power[1] >= 0:
        return None
    if k_cfg.get("family", "power") != "power":
        return None
    return TauOracle(nu=float(k_cfg.get("nu", 0.0)), gamma=-power[1],
                     a=power[0])


# -- actions -------------------------------------------------------------------

def _action_simulate(cfg, spec, power, k_cfg, out, seed, workers):
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
    orc = _tau_oracle(power, k_cfg)
    rows = []
    for t in ts:
        est = estimate_explosion_cdf(spec, x0, t, n_paths, n_max,
                                     seed=seed, workers=workers)
        oracle_val = explosion_cdf(orc, t, x0) if orc is not None else float("nan")
        rows.append((float(t), est.value, est.std_error, oracle_val))
    files.append(_write_csv(out, "explosion_cdf.csv",
                            "t,estimate,se,oracle", rows))
    return files


def _action_evolve(cfg, spec, power, k_cfg, out, seed, workers):
    grid = _grid_from(cfg)
    u0 = _u0_from(cfg, grid)
    ts = [float(t) for t in _numeric(cfg, "t_values", [0.25, 0.5, 1.0, 2.0])]
    dy = _numeric(cfg, "dyson", {}) or {}
    N = int(dy.get("N", 60))
    tol = float(_numeric(cfg, "tolerance", 0.01))
    files = []
    rows = []
    orc = _tau_oracle(power, k_cfg)
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
                     res.sub_grid_mass, res.super_grid_mass, oracle_val, tol,
                     len(trace.term_norms), float(trace.term_norms[-1]),
                     int(trace.converged)))
        files.append(_write_csv(
            out, f"density_t{t:g}.csv", "node,cell_mass",
            list(zip(map(float, grid.nodes), map(float, res.masses)))))
    files.append(_write_csv(
        out, "mass_vs_t.csv",
        "t,mass_total,mass_grid,sub_grid,super_grid,oracle,tolerance,"
        "n_terms,tail,converged", rows))
    if budget_hit:
        raise NumericalError("Dyson-Phillips expansion hit the term budget "
                             "before the tail criterion")
    return files


def _action_classify(cfg, spec, power, k_cfg, out, seed, workers):
    lams = [float(l) for l in _numeric(cfg, "lambdas", [1.0, 0.1, 0.01])]
    pr = _numeric(cfg, "probes", {}) or {}
    probes = np.geomspace(float(pr.get("lo", 1e-3)), float(pr.get("hi", 1e3)),
                          int(pr.get("n", 7)))
    budgets = {"n_paths": int(_numeric(cfg, "n_paths", 400)),
               "n_iter": int(_numeric(cfg, "n_iter", 400))}
    mc = classify(spec, lams, probes, budgets, seed=seed, workers=workers)
    files = []
    ev_path = Path(out) / "evidence.csv"
    mc.to_csv(ev_path)
    files.append(ev_path)
    rows = [("MonteCarloLaplace", mc.verdict.value, mc.notes)]
    beta = (cfg.get("model", {}).get("g", {}) or {}).get("beta")
    if power is not None and beta is not None and \
            k_cfg.get("family", "power") == "power":
        nu = float(k_cfg.get("nu", 0.0))
        h = (lambda z: (nu + 2.0) * np.asarray(z, dtype=float) ** nu)
        regime = cfg["model"]["regime"]
        try:
            cf = classify_power_family(power[1], float(beta), power[0], h,
                                       regime=regime if regime != "pure_jump"
                                       else None)
            rows.append(("ClosedFormTable", cf.verdict.value, cf.notes))
        except OutOfRegime as exc:
            rows.append(("ClosedFormTable", "OutOfRegime", str(exc)))
    files.append(_write_csv(out, "verdict.csv", "method,verdict,notes",
                            [(m, v, '"' + n + '"') for m, v, n in rows]))
    return files


def _action_audit(cfg, spec, power, k_cfg, out, seed, workers):
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


def _action_oracle(cfg, spec, power, k_cfg, out, seed, workers):
    orc = _tau_oracle(power, k_cfg)
    if orc is None:
        raise ModelError("the oracle action needs the pure-fragmentation power "
                         "family: phi(x) = a x^alpha with alpha < 0 and a "
                         "power-law kernel")
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


_ACTIONS = {
    "simulate": _action_simulate,
    "evolve": _action_evolve,
    "classify": _action_classify,
    "audit": _action_audit,
    "oracle": _action_oracle,
}


def run(action, config_path, out_dir=None, seed=None, workers=None):
    """Execute one configured action; returns the artifact paths."""
    cfg = load_config(config_path)
    declared = cfg.get("action")
    if declared is not None and declared != action:
        raise ConfigError(f"config field 'action' says {declared!r} but the "
                          f"{action!r} subcommand was invoked")
    if seed is None:
        seed = _numeric(cfg, "seed", None)
        if seed is None:
            raise ConfigError("numeric.seed is required (or pass --seed)")
    seed = int(seed)
    if workers is None:
        workers = int(_numeric(cfg, "workers", 1))
    workers = int(workers)
    out = Path(out_dir if out_dir is not None
               else (cfg.get("output", {}) or {}).get("dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    spec, power, k_cfg = build_model(cfg)
    files = _ACTIONS[action](cfg, spec, power, k_cfg, out, seed, workers)
    _finish(out, config_path, files)
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
