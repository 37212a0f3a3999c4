"""CLI: shipped example configs, artifacts, manifest, exit codes."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pdmpfrag.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(args):
    return CliRunner().invoke(main, args)


def _check_manifest(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool_version"]
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


def test_simulate_oracle_column_agrees(tmp_path):
    out = tmp_path / "sim"
    res = _run(["simulate", "-c", str(CONFIGS / "simulate.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    data = np.loadtxt(out / "explosion_cdf.csv", delimiter=",", skiprows=1)
    est, se, oracle = data[:, 1], data[:, 2], data[:, 3]
    assert np.all(np.abs(est - oracle) <= 3.0 * se + 1e-3)


def test_classify_verdicts_agree(tmp_path):
    out = tmp_path / "cls"
    res = _run(["classify", "-c", str(CONFIGS / "classify.yaml"),
                "-o", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "verdict.csv").read_text().strip().splitlines()
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert rows["MonteCarloLaplace"] == "Stochastic"
    assert rows["ClosedFormTable"] == "Stochastic"


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
    cfg = tmp_path / "growthmodel.yaml"
    cfg.write_text("model:\n  regime: growth\n  g: {beta: 1.0}\n"
                   "  phi: {a: 1.0, alpha: 0.0}\n"
                   "  kernel: {family: power, nu: 0.0}\n"
                   "numeric: {seed: 0}\n")
    res = _run(["oracle", "-c", str(cfg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 3
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
