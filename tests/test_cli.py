"""CLI: shipped example configs, artifacts, manifest, exit codes."""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from pdmpfrag import (
    GridDensity,
    LogGrid,
    TauOracle,
    dyson_phillips,
    estimate_explosion_cdf,
    exact_mass,
)
from pdmpfrag.cli import build_model, load_config, main
from pdmpfrag.diagnose import EPS_CONV, EPS_S, EPS_SS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(args):
    return CliRunner().invoke(main, args)


def _check_manifest(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__}
    assert set(manifest["wall_s"]) == {"build_model", "action"}
    assert all(v >= 0.0 for v in manifest["wall_s"].values())
    assert len(manifest["config_sha256"]) == 64
    for name, digest in manifest["outputs"].items():
        body = (out_dir / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest
    return manifest


@pytest.mark.parametrize("action,expected", [
    ("simulate", ["trajectories.csv", "explosion_cdf.csv"]),
    ("evolve", ["density_t0.25.csv", "density_t1.csv", "mass_vs_t.csv"]),
    ("classify", ["evidence.csv", "verdict.csv"]),
    ("audit", ["kernel_normalization.csv", "map_roundtrip.csv"]),
    ("oracle", ["oracle.csv"]),
])
def test_example_configs_run(tmp_path, action, expected):
    out = tmp_path / action
    res = _run([action, "-c", str(CONFIGS / f"{action}.yaml"), "-o", str(out)])
    assert res.exit_code == 0, res.output
    for name in expected:
        assert (out / name).is_file(), name
    manifest = _check_manifest(out)
    assert set(manifest["outputs"]) == set(expected)
    # the model's divergence flags travel with the artifacts
    cfg = load_config(CONFIGS / f"{action}.yaml")
    assert manifest["divergence"] == build_model(cfg).divergence


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = _run(["simulate", "-c", str(CONFIGS / "simulate.yaml"),
                    "-o", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out)
    for name in ("trajectories.csv", "explosion_cdf.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_trajectory_times_strictly_increase(tmp_path):
    # floats are written as their shortest round-trip repr, so jump times
    # that differ in the last bits still print as distinct, increasing values
    out = tmp_path / "sim"
    res = _run(["simulate", "-c", str(CONFIGS / "simulate.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
    path_id, t_n = data[:, 0], data[:, 2]
    same_path = path_id[1:] == path_id[:-1]
    assert np.all(np.diff(t_n)[same_path] > 0)


def test_evolve_mass_vs_t_telemetry(tmp_path):
    # the Dyson term count, tail and convergence flag travel with each mass
    # row, and the CSV bodies are byte-identical across reruns
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = _run(["evolve", "-c", str(CONFIGS / "evolve.yaml"), "-o", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out)
    body = (outs[0] / "mass_vs_t.csv").read_text()
    assert body == (outs[1] / "mass_vs_t.csv").read_text()
    lines = body.strip().splitlines()
    assert lines[0].endswith(",n_terms,tail,converged")
    for line in lines[1:]:
        n_terms, tail, converged = line.split(",")[-3:]
        assert int(n_terms) > 1
        assert 0.0 <= float(tail) < 1e-8
        assert converged == "1"


def test_evolve_unaccounted_column(tmp_path):
    # unaccounted = ||u0|| - mass_total, in every regime; the other columns
    # keep their names, order and bytes: each mass is the repr of what
    # dyson_phillips returns
    out = tmp_path / "ev"
    res = _run(["evolve", "-c", str(CONFIGS / "evolve.yaml"), "-o", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "mass_vs_t.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header.pop(5) == "unaccounted"
    assert header == ["t", "mass_total", "mass_grid", "sub_grid", "super_grid",
                      "oracle", "tolerance", "n_terms", "tail", "converged"]
    cfg = load_config(CONFIGS / "evolve.yaml")
    spec, num = build_model(cfg), cfg["numeric"]
    u0 = GridDensity.uniform_in_m(LogGrid(**num["grid"]), num["u0"]["lo"],
                                  num["u0"]["hi"])
    for line in lines[1:]:
        cols = line.split(",")
        unaccounted = float(cols.pop(5))
        t = float(cols[0])
        got, trace = dyson_phillips(spec, t, u0, **num["dyson"])
        assert cols[:5] == [repr(float(v)) for v in (
            t, got.total_mass, got.grid_mass, got.sub_grid_mass,
            got.super_grid_mass)]
        assert cols[5] == repr(exact_mass(TauOracle(nu=0.0, gamma=1.0, a=1.0),
                                          t, u0))
        assert cols[6:] == [repr(num["tolerance"]), str(len(trace.term_norms)),
                            repr(float(trace.term_norms[-1])), "1"]
        assert unaccounted == u0.total_mass - got.total_mass


def test_evolve_manifest_work_counters(tmp_path):
    # per t-value the manifest records n_s, the Dyson levels run and the
    # cells they ran on: the first J cells for pure jump, all n otherwise;
    # the other actions record no work
    out = tmp_path / "ev"
    res = _run(["evolve", "-c", str(CONFIGS / "evolve.yaml"), "-o", str(out)])
    assert res.exit_code == 0, res.output
    cfg = load_config(CONFIGS / "evolve.yaml")
    spec, num = build_model(cfg), cfg["numeric"]
    u0 = GridDensity.uniform_in_m(LogGrid(**num["grid"]), num["u0"]["lo"],
                                  num["u0"]["hi"])
    J = int(np.flatnonzero(u0.masses)[-1]) + 1
    assert J < num["grid"]["n_cells"]
    want = []
    for t in num["t_values"]:
        _, trace = dyson_phillips(spec, t, u0, **num["dyson"])
        want.append({"t": t, "n_s": num["dyson"]["n_s"],
                     "levels": len(trace.term_norms) - 1, "cells": J})
    assert _check_manifest(out)["work"] == {"dyson": want}
    res = _run(["oracle", "-c", str(CONFIGS / "oracle.yaml"),
                "-o", str(tmp_path / "or")])
    assert res.exit_code == 0, res.output
    assert _check_manifest(tmp_path / "or")["work"] == {}


def test_simulate_oracle_column_agrees(tmp_path):
    out = tmp_path / "sim"
    res = _run(["simulate", "-c", str(CONFIGS / "simulate.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = np.loadtxt(out / "explosion_cdf.csv", delimiter=",", skiprows=1)
    est, se, oracle = data[:, 1], data[:, 2], data[:, 3]
    assert np.all(np.abs(est - oracle) <= 3.0 * se + 1e-3)


def test_simulate_cdf_truncation_columns(tmp_path):
    # the half-budget value and the exhausted fraction behind each estimate
    # are the estimator's own diagnostics
    out = tmp_path / "sim"
    res = _run(["simulate", "-c", str(CONFIGS / "simulate.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "explosion_cdf.csv").read_text().strip().splitlines()
    assert lines[0] == ("t,estimate,se,oracle,value_at_half_budget,"
                        "frac_budget_exhausted")
    cfg = load_config(CONFIGS / "simulate.yaml")
    spec = build_model(cfg)
    num = cfg["numeric"]
    for line in lines[1:]:
        t, value, _se, _oracle, half, exhausted = map(float, line.split(","))
        est = estimate_explosion_cdf(spec, num["x0"], t, num["n_paths"],
                                     num["n_max"], seed=num["seed"])
        assert value == est.value
        assert half == est.diagnostics["value_at_half_budget"]
        assert exhausted == est.diagnostics["frac_budget_exhausted"]


def test_classify_verdicts_agree(tmp_path):
    out = tmp_path / "cls"
    res = _run(["classify", "-c", str(CONFIGS / "classify.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "verdict.csv").read_text().strip().splitlines()
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert rows["MonteCarloLaplace"] == "Stochastic"
    assert rows["ClosedFormTable"] == "Stochastic"
    # the thresholds and the extremes that decided the Monte Carlo verdict,
    # those of the evidence rows at the smallest lambda; none for the table
    assert lines[0] == ("method,verdict,eps_s,eps_ss,eps_conv,max_upper_ci,"
                        "min_lower_ci,max_half_gap,notes")
    values = {line.split(",")[0]: [float(v) for v in line.split(",")[2:8]]
              for line in lines[1:]}
    assert values["MonteCarloLaplace"][:3] == [EPS_S, EPS_SS, EPS_CONV]
    ev = np.loadtxt(out / "evidence.csv", delimiter=",", skiprows=1)
    last = ev[ev[:, 0] == ev[:, 0].min()]
    np.testing.assert_allclose(
        values["MonteCarloLaplace"][3:],
        [np.max(last[:, 2] + 3.0 * last[:, 3]),
         np.min(last[:, 2] - 3.0 * last[:, 3]), np.max(last[:, 5])],
        rtol=1e-8)
    assert values["MonteCarloLaplace"][3] < EPS_S
    assert np.all(np.isnan(values["ClosedFormTable"]))


def test_missing_config_exit_2(tmp_path):
    res = _run(["simulate", "-c", str(tmp_path / "nope.yaml")])
    assert res.exit_code == 2
    assert "config error" in res.output


def test_action_mismatch_exit_2(tmp_path):
    res = _run(["evolve", "-c", str(CONFIGS / "simulate.yaml"),
                "-o", str(tmp_path)])
    assert res.exit_code == 2
    assert "action" in res.output


def test_bad_schema_exit_2(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model:\n  regime: sideways\nnumeric: {seed: 0}\n")
    res = _run(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "regime" in res.output
    cfg2 = tmp_path / "bad2.yaml"
    cfg2.write_text("model:\n  regime: pure_jump\n  phi: {a: 1.0}\n"
                    "numeric: {seed: 0}\n")
    res = _run(["simulate", "-c", str(cfg2), "-o", str(tmp_path / "o2")])
    assert res.exit_code == 2
    # malformed tables, sections and values exit 2 too, without a traceback
    (tmp_path / "one_row.csv").write_text("x,phi\n1.0,1.0\n")
    (tmp_path / "text.csv").write_text("x,phi\n1e-9,1.0\n1e9,high\n")
    model = ("model:\n  regime: pure_jump\n  phi: {a: 1.0, alpha: -1.0}\n"
             "  kernel: {family: power, nu: 0.0}\n")
    bad = {
        "one_row": (model.replace("{a: 1.0, alpha: -1.0}",
                                  f"{{table: {tmp_path / 'one_row.csv'}}}")
                    + "numeric: {seed: 0}\n", []),
        "text_cell": (model.replace("{a: 1.0, alpha: -1.0}",
                                    f"{{table: {tmp_path / 'text.csv'}}}")
                      + "numeric: {seed: 0}\n", []),
        "no_kernel_table": (model.replace("{family: power, nu: 0.0}",
                                          "{family: homogeneous}")
                            + "numeric: {seed: 0}\n", []),
        "model_list": ("model: [pure_jump]\nnumeric: {seed: 0}\n", []),
        "numeric_list": (model + "numeric: [0]\n", ["--seed", "0"]),
        "few_paths": (model + "numeric: {seed: 0, n_paths: 50}\n", []),
        "negative_seed": (model + "numeric: {seed: 0}\n", ["--seed", "-1"]),
        "negative_t": (model + "numeric: {seed: 0, n_paths: 100, "
                       "t_values: [1.0, -1.0]}\n", []),
        # a misspelled key, or one the action does not read, is an error
        # that names it, not a silent default
        "numeric_typo": (model + "numeric: {seed: 0, n_path: 200, "
                         "t_value: [0.5]}\n", []),
        "kernel_typo": (model.replace("{family: power, nu: 0.0}", "{mu: 0.5}")
                        + "numeric: {seed: 0}\n", []),
        "phi_typo": (model.replace("alpha:", "alfa:")
                     + "numeric: {seed: 0}\n", []),
        "g_typo": (model.replace("pure_jump", "growth") + "  g: {bta: 1.0}\n"
                   "numeric: {seed: 0}\n", []),
        "model_typo": (model + "  kernal: {family: power}\n"
                       "numeric: {seed: 0}\n", []),
        "other_action_key": (model + "numeric: {seed: 0, lambdas: [1.0]}\n",
                             []),
        # a misspelled section: its artifacts would land elsewhere
        "section_typo": (model + "numeric: {seed: 0}\n"
                         f"outptu: {{dir: {tmp_path / 'wanted'}}}\n", []),
        # the thread count is no longer a knob
        "workers_key": (model + "numeric: {seed: 0, workers: 2}\n", []),
    }
    unknown = {"numeric_typo": "n_path, t_value", "kernel_typo": "mu",
               "phi_typo": "alfa", "g_typo": "bta", "model_typo": "kernal",
               "other_action_key": "lambdas", "section_typo": "outptu",
               "workers_key": "workers"}
    for name, (text, extra) in bad.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        res = _run(["simulate", "-c", str(path), "-o", str(tmp_path / name)]
                   + extra)
        assert res.exit_code == 2, (name, res.output, res.exception)
        assert "config error" in res.output, name
        assert unknown.get(name, "") in res.output, name
    # the nested numeric sections too, each on an action that reads it
    for action, numeric in (
            ("evolve", "{seed: 0, grid: {x_min: 1.0e-3, n_cell: 64}}"),
            ("evolve", "{seed: 0, dyson: {N: 60, ns: 64}}"),
            ("oracle", "{seed: 0, u0: {lo: 1.0, high: 2.0}}"),
            ("classify", "{seed: 0, probes: {lo: 1.0, hi: 2.0, m: 3}}")):
        path = tmp_path / "nested.yaml"
        path.write_text(model + f"numeric: {numeric}\n")
        res = _run([action, "-c", str(path), "-o", str(tmp_path / "nested")])
        assert res.exit_code == 2, (numeric, res.output)
        assert "unknown key(s) in numeric." in res.output, numeric
    # nor is the thread count an option
    path = tmp_path / "workers.yaml"
    path.write_text(model + "numeric: {seed: 0}\n")
    res = _run(["simulate", "-c", str(path), "--workers", "2"])
    assert res.exit_code == 2 and "--workers" in res.output, res.output


@pytest.mark.parametrize("x0", [".nan", "-1.0", ".inf"])
def test_start_outside_domain_exit_2(tmp_path, x0):
    cfg = tmp_path / "x0.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   f"numeric: {{seed: 1, n_paths: 100, x0: {x0}}}\n")
    res = _run(["simulate", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "not in (0, inf)" in res.output


def test_missing_seed_exit_2(tmp_path):
    cfg = tmp_path / "noseed.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n")
    res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "seed" in res.output
    # the --seed flag satisfies the requirement
    res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o"),
                "--seed", "1"])
    assert res.exit_code == 0, res.output


def test_oracle_out_of_family_exit_3(tmp_path):
    # alpha = 0 is outside the gamma family; alpha = -1/2 is inside it, but
    # the growth drift makes the model honest, so the gamma law is not its law
    for alpha in ("0.0", "-0.5"):
        cfg = tmp_path / "growthmodel.yaml"
        cfg.write_text("model:\n  regime: growth\n  g: {beta: 1.0}\n"
                       f"  phi: {{a: 1.0, alpha: {alpha}}}\n"
                       "  kernel: {family: power, nu: 0.0}\n"
                       "numeric: {seed: 0}\n")
        res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert res.exit_code == 3, alpha
        assert "model error" in res.output


def test_evolve_budget_exhausted_exit_4(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text("action: evolve\nmodel:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric:\n  seed: 0\n  t_values: [4.0]\n"
                   "  dyson: {N: 1, n_s: 16}\n")
    res = _run(["evolve", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 4
    assert "numerical error" in res.output
    row = (tmp_path / "o" / "mass_vs_t.csv").read_text().splitlines()[1]
    assert row.split(",")[-3::2] == ["2", "0"]  # n_terms, converged


def test_evolve_u0_off_grid_exit_2(tmp_path):
    # a u0 with no mass on the grid has nothing to evolve: a config error
    # naming the key, not all-zero rows and a term-budget exit 4
    cfg = tmp_path / "off.yaml"
    cfg.write_text("action: evolve\nmodel:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric:\n  seed: 0\n  t_values: [1.0]\n"
                   "  grid: {x_min: 1.0e-6, x_max: 1.0e+2, n_cells: 64}\n"
                   "  u0: {lo: 200.0, hi: 300.0}\n")
    res = _run(["evolve", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "numeric.u0" in res.output
    assert not (tmp_path / "o" / "mass_vs_t.csv").exists()


@pytest.mark.parametrize("action", ["evolve", "oracle"])
def test_u0_empty_interval_exit_2(tmp_path, action):
    # u0 with lo = hi has no uniform density: a config error naming both
    # ends, not a ZeroDivisionError traceback and exit 1
    cfg = tmp_path / "u0.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric:\n  seed: 0\n  t_values: [1.0]\n"
                   "  u0: {lo: 1.0, hi: 1.0}\n")
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "lo < hi" in res.output


def test_audit_tabulated_decay_rate(tmp_path):
    # decay g(x) = x^2 with phi = 1 given as a table: Q(x) = 1/x is a
    # tabulated map anchored at +inf whose roundtrip must hold out to 1e7
    (tmp_path / "phi.csv").write_text("x,phi\n1e-9,1.0\n1e9,1.0\n")
    cfg = tmp_path / "audit.yaml"
    cfg.write_text("action: audit\nmodel:\n  regime: decay\n"
                   "  g: {beta: -1.0}\n"
                   f"  phi: {{table: {tmp_path / 'phi.csv'}}}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric: {seed: 0}\n")
    res = _run(["audit", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "o" / "map_roundtrip.csv").read_text().splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == ["pass", "pass"]
