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
# sha256 of every CSV body of the shipped configs' runs
CONFIG_OUTPUTS = json.loads((Path(__file__).resolve().parent / "data"
                             / "config_outputs.json").read_text())


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
    # the CSV bodies are pinned bitwise, like the goldens in tests/data
    assert manifest["outputs"] == CONFIG_OUTPUTS[action]
    # the model's divergence flags travel with the artifacts
    cfg = load_config(CONFIGS / f"{action}.yaml")
    assert manifest["divergence"] == build_model(cfg).divergence


def test_rerun_is_byte_identical(tmp_path):
    # timings live in the manifest alone, so every CSV body of every shipped
    # config repeats exactly
    for action in ("simulate", "evolve", "classify", "audit", "oracle"):
        outs = [tmp_path / f"{action}_{tag}" for tag in ("a", "b")]
        for out in outs:
            res = _run([action, "-c", str(CONFIGS / f"{action}.yaml"),
                        "-o", str(out)])
            assert res.exit_code == 0, res.output
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names == sorted(p.name for p in outs[1].glob("*.csv")) != []
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), f"{action}: {name}"


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


@pytest.mark.parametrize("action,name,col", [
    ("evolve", "mass_vs_t.csv", 6), ("oracle", "oracle.csv", 3)])
def test_oracle_mass_for_non_integer_rho(tmp_path, action, name, col):
    # nu = 0.5, gamma = 1: (nu+2)/gamma = 2.5 is no integer, and the gamma
    # tail still gives the exact mass; a Poisson-sum oracle wrote nan here
    cfg = tmp_path / "nu.yaml"
    text = (CONFIGS / f"{action}.yaml").read_text()
    assert text.count("nu: 0.0}") == 1
    cfg.write_text(text.replace("nu: 0.0}", "nu: 0.5}"))
    out = tmp_path / "o"
    res = _run([action, "-c", str(cfg), "-o", str(out)])
    assert res.exit_code == 0, res.output
    num = load_config(cfg)["numeric"]
    u0 = GridDensity.uniform_in_m(LogGrid(**num["grid"]), num["u0"]["lo"],
                                  num["u0"]["hi"])
    orc = TauOracle(nu=0.5, gamma=1.0, a=1.0)
    rows = [line.split(",") for line in
            (out / name).read_text().strip().splitlines()[1:]]
    assert len(rows) == len(num["t_values"])
    for cols in rows:
        assert np.isfinite(float(cols[col]))
        assert cols[col] == repr(exact_mass(orc, float(cols[0]), u0))


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
    # log-x interpolation needs finite entries and x > 0: these ran with
    # -inf or nan nodes and exit 0
    tables = {"zero_x": "0.0,1.0", "negative_x": "-1.0,1.0",
              "nan_x": "nan,1.0", "nan_value": "0.5,nan"}
    for name, row in tables.items():
        (tmp_path / f"{name}.csv").write_text(f"x,phi\n{row}\n1.0,1.0\n")
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
        # pure fragmentation has no drift; a stray g made classify's
        # closed-form table read the model as growth and call it stochastic
        "pure_jump_g": (model + "  g: {beta: 1.0}\nnumeric: {seed: 0}\n", []),
        **{f"{name}_table": (model.replace(
            "{a: 1.0, alpha: -1.0}", f"{{table: {tmp_path / name}.csv}}")
            + "numeric: {seed: 0}\n", []) for name in tables},
        "kernel_zero_x_table": (model.replace(
            "{family: power, nu: 0.0}",
            f"{{family: homogeneous, table: {tmp_path / 'zero_x.csv'}}}")
            + "numeric: {seed: 0}\n", []),
    }
    unknown = {"numeric_typo": "n_path, t_value", "kernel_typo": "mu",
               "phi_typo": "alfa", "g_typo": "bta", "model_typo": "kernal",
               "other_action_key": "lambdas", "section_typo": "outptu",
               "workers_key": "workers", "pure_jump_g": "model.g",
               **{f"{name}_table": "model.phi table" for name in tables},
               "kernel_zero_x_table": "model.kernel table"}
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


def test_classify_one_path_exit_2(tmp_path):
    # one path per cell has no standard error: exit 2, not nan confidence
    # bounds and an Inconclusive verdict
    cfg = tmp_path / "one.yaml"
    cfg.write_text((CONFIGS / "classify.yaml").read_text()
                   .replace("n_paths: 400", "n_paths: 1"))
    res = _run(["classify", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "n_paths >= 2" in res.output
    assert not (tmp_path / "o" / "verdict.csv").exists()


@pytest.mark.parametrize("action,old,new", [
    ("classify", "nu: 0.0}", "nu: .nan}"),
    ("simulate", "a: 1.0, alpha: -1.0}", "a: .nan, alpha: -1.0}"),
    ("classify", "beta: -1.0}", "beta: .nan}"),
    ("classify", "beta: -1.0}", "beta: .inf}")],
    ids=["classify-nu", "simulate-a", "classify-beta-nan", "classify-beta-inf"])
def test_non_finite_model_parameter_exit_2(tmp_path, action, old, new):
    # unchecked, classify wrote StronglyStable from Monte Carlo beside
    # Stochastic from the table, and simulate an explosion CDF of 1.0 +- 0;
    # a nan or inf beta exited 3 with "g must be positive"
    cfg = tmp_path / "nan.yaml"
    text = (CONFIGS / f"{action}.yaml").read_text()
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new))
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "finite" in res.output
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("action,old,new,key", [
    ("evolve", "n_cells: 256}", "n_cells: 256.5}", "numeric.grid.n_cells"),
    ("simulate", "n_paths: 2000", "n_paths: 2000.5", "numeric.n_paths"),
    ("simulate", "n_max: 1500", "n_max: 1500.5", "numeric.n_max"),
    ("evolve", "N: 60,", "N: 60.5,", "numeric.dyson.N"),
    ("evolve", "n_s: 64}", "n_s: 2.5}", "numeric.dyson.n_s"),
    ("classify", "n: 7}", "n: 7.5}", "numeric.probes.n"),
    ("classify", "n_paths: 400", "n_paths: 50.9", "numeric.n_paths"),
    ("classify", "n_iter: 800", "n_iter: 40.7", "numeric.n_iter"),
    ("simulate", "seed: 42", "seed: 42.5", "numeric.seed")],
    ids=["n_cells", "simulate-n_paths", "n_max", "N", "n_s", "probes-n",
         "classify-n_paths", "n_iter", "seed"])
def test_fractional_count_exit_2(tmp_path, action, old, new, key):
    # unchecked, each was truncated: classify ran n_iter 40.7 as 40 and
    # n_paths 50.9 as 50, and evolve ran n_s 2.5 as 2, all exiting 0
    cfg = tmp_path / "count.yaml"
    text = (CONFIGS / f"{action}.yaml").read_text()
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new))
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and key in res.output
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("action,old,new,key", [
    ("simulate", "n_paths: 2000", "n_paths: -5", "numeric.n_paths"),
    ("evolve", "N: 60,", "N: -1,", "numeric.dyson.N"),
    ("classify", "n_iter: 800", "n_iter: true", "numeric.n_iter"),
    ("simulate", "n_max: 1500", "n_max: '1500'", "numeric.n_max")],
    ids=["negative-n_paths", "negative-N", "bool-n_iter", "string-n_max"])
def test_non_count_exit_2(tmp_path, action, old, new, key):
    # a negative, bool or string count is refused by the one count rule,
    # naming its key: unchecked, -5 paths failed in numpy ("negative
    # dimensions are not allowed") and N = -1 was named "N"
    cfg = tmp_path / "count.yaml"
    text = (CONFIGS / f"{action}.yaml").read_text()
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new))
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and key in res.output
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_integral_float_count_runs_as_integer(tmp_path):
    # 2000.0 paths and seed 42.0 are the shipped 2000 and 42, bit for bit
    cfg = tmp_path / "float.yaml"
    cfg.write_text((CONFIGS / "simulate.yaml").read_text()
                   .replace("n_paths: 2000", "n_paths: 2000.0")
                   .replace("seed: 42", "seed: 42.0"))
    out = tmp_path / "o"
    res = _run(["simulate", "-c", str(cfg), "-o", str(out)])
    assert res.exit_code == 0, res.output
    assert _check_manifest(out)["outputs"] == CONFIG_OUTPUTS["simulate"]


@pytest.mark.parametrize("numeric", [
    "lambdas: []", "lambdas: [.inf]", "lambdas: [0.1, .nan]",
    "probes: {n: 0}"])
def test_classify_bad_grids_exit_2(tmp_path, numeric):
    # unchecked: no lambda ended in an IndexError traceback (exit 1),
    # lambda = inf and a nan lambda exited 0 with a verdict, and no probe
    # exited 2 with "max() arg is an empty sequence"
    cfg = tmp_path / "grids.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   f"numeric: {{seed: 0, n_paths: 10, n_iter: 8, {numeric}}}\n")
    res = _run(["classify", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    assert ("at least one probe" if "probes" in numeric
            else "finite lambdas > 0") in res.output
    assert not (tmp_path / "o" / "verdict.csv").exists()


@pytest.mark.parametrize("action,numeric", [
    ("simulate", ", n_paths: 100"), ("evolve", ", dyson: {n_s: 16}"),
    ("oracle", ""), ("evolve", "")],
    ids=["simulate", "evolve", "oracle", "evolve_default_n_s"])
@pytest.mark.parametrize("t", [".inf", ".nan"])
def test_non_finite_time_exit_2(tmp_path, action, numeric, t):
    # unchecked: simulate gave 1.0 +- 0 at t = inf and 0.0 +- 0 at nan,
    # evolve wrote nan masses and exited 4, oracle wrote a nan row; without
    # dyson.n_s, evolve's default n_s failed on t = inf before the check
    cfg = tmp_path / "t.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   f"numeric: {{seed: 0, t_values: [1.0, {t}]{numeric}}}\n")
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "[0, inf)" in res.output
    assert not (tmp_path / "o" / "manifest.json").exists()


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


def test_null_output_dir_exit_2(tmp_path):
    # output.dir: null is a bad config value (exit 2), not a TypeError
    # traceback; -o still overrides it
    cfg = tmp_path / "outnull.yaml"
    cfg.write_text((CONFIGS / "oracle.yaml").read_text()
                   .replace("dir: out/oracle", "dir: null"))
    res = _run(["oracle", "-c", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output
    res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o")])
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


@pytest.mark.parametrize("action,lo,hi", [
    pytest.param(action, lo, hi, id=action + tag)
    for tag, lo, hi in (("", 1.0, 1.0), ("-lo-negative", -1.0, 2.0),
                        ("-hi-inf", 1.0, ".inf"))
    for action in ("evolve", "oracle")])
def test_u0_empty_interval_exit_2(tmp_path, action, lo, hi):
    # u0 with lo = hi has no uniform density: a config error naming both
    # ends, not a ZeroDivisionError traceback and exit 1; nor has u0 with
    # lo < 0 or hi = inf, which ran to exit 0 with a mass above 1 (evolve)
    # or an exact mass of 0 at every t (oracle)
    cfg = tmp_path / "u0.yaml"
    cfg.write_text("model:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric:\n  seed: 0\n  t_values: [1.0]\n"
                   f"  u0: {{lo: {lo}, hi: {hi}}}\n")
    res = _run([action, "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "lo < hi" in res.output


@pytest.mark.parametrize("family", ["homogeneous", "separable"])
def test_audit_table_kernel(tmp_path, family):
    # a kernel table h = 2 (homogeneous h(z), separable beta(x)): both are
    # the uniform kernel b(x, y) = 2 / y, so every mass check passes
    table = tmp_path / "h.csv"
    table.write_text("x,h\n1e-12,2.0\n1e12,2.0\n")
    cfg = tmp_path / "audit.yaml"
    cfg.write_text("action: audit\nmodel:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   f"  kernel: {{family: {family}, table: {table}}}\n"
                   "numeric: {seed: 0}\n")
    res = _run(["audit", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "o" / "kernel_normalization.csv").read_text()
    rows = rows.splitlines()
    assert len(rows) > 1
    assert {r.split(",")[-1] for r in rows[1:]} == {"pass"}


def test_audit_counts_the_kernel_mass_below_the_panels(tmp_path):
    # nu = -1.5 puts (1e-12)^0.5 = 1e-6 of the mass below the panels'
    # lower edge 1e-12 y; without it every row read FAIL (and exited 0)
    cfg = tmp_path / "audit.yaml"
    cfg.write_text((CONFIGS / "audit.yaml").read_text().replace(
        "nu: 0.0", "nu: -1.5"))
    assert "nu: -1.5" in cfg.read_text()
    res = _run(["audit", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "o" / "kernel_normalization.csv").read_text()
    assert {r.split(",")[-1] for r in rows.splitlines()[1:]} == {"pass"}


@pytest.mark.parametrize("y", ["-1.0", ".nan", ".inf", "0.0"])
def test_audit_refuses_parents_outside_domain_exit_2(tmp_path, y):
    # unchecked, y = -1 wrote a passing row (its negative residual passed the
    # tolerance) and exited 0, and y = nan or inf exited 4
    cfg = tmp_path / "audit.yaml"
    cfg.write_text((CONFIGS / "audit.yaml").read_text().replace(
        "y_values: [0.5,", f"y_values: [{y},"))
    assert f"[{y}," in cfg.read_text()
    res = _run(["audit", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "(0, inf)" in res.output
    assert not (tmp_path / "o" / "kernel_normalization.csv").exists()


def test_audit_kernel_fail_exits_4(tmp_path):
    # h = 2.02 carries 1% too much mass: the kernel table fails, and a FAIL
    # in either table is a numerical error, not exit 0
    table = tmp_path / "h.csv"
    table.write_text("x,h\n1e-12,2.02\n1e12,2.02\n")
    cfg = tmp_path / "audit.yaml"
    cfg.write_text("action: audit\nmodel:\n  regime: pure_jump\n"
                   "  phi: {a: 1.0, alpha: -1.0}\n"
                   f"  kernel: {{family: homogeneous, table: {table}}}\n"
                   "numeric: {seed: 0}\n")
    res = _run(["audit", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 4, res.output
    assert "kernel mass" in res.output
    rows = (tmp_path / "o" / "kernel_normalization.csv").read_text()
    rows = [r.split(",") for r in rows.splitlines()[1:]]
    assert {r[-1] for r in rows} == {"FAIL"}
    assert all(abs(float(r[1]) - 1.01) < 1e-9 for r in rows)


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


@pytest.mark.parametrize("grid,match", [
    ("{x_min: 100.0, x_max: 1.0e-6, n_cells: 256}", "x_min < x_max"),
    ("{x_min: 1.0e-6, x_max: 100.0, n_cells: 0}", "n_cells >= 1")],
    ids=["reversed", "empty"])
def test_non_grid_exit_2(tmp_path, grid, match):
    # unchecked: the reversed grid exited 0 with exact_mass_u0 the negative
    # of the correct column
    cfg = tmp_path / "grid.yaml"
    cfg.write_text((CONFIGS / "oracle.yaml").read_text().replace(
        "{x_min: 1.0e-6, x_max: 1.0e+2, n_cells: 256}", grid))
    assert grid in cfg.read_text()
    res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and match in res.output
    assert not (tmp_path / "o" / "oracle.csv").exists()
