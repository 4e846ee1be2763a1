"""Tests for the batch CLI."""
import csv
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from qcflow.cli import main, parse_config_file
from qcflow.flow import FlowConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args):
    return main(args)


def test_run_minimal_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# minimal desk-scale run\n"
        "m_x = 4\n"
        "t_end = 0.02\n"
        "record_every = 4\n"
        "cfl_safety = 0.5\n")
    out = tmp_path / "artifacts"
    code = run_cli(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    csv_path = out / "energy.csv"
    verdict_path = out / "verdict.json"
    assert csv_path.exists() and verdict_path.exists()
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["time", "energy", "dF_dt_numeric", "dF_dt_analytic"]
    assert len(rows) >= 3
    payload = json.loads(verdict_path.read_text())
    assert payload["violations"] == []
    assert payload["config"]["m_x"] == 4
    assert payload["config"]["format_version"]
    assert payload["verdict"]["energy_monotone"] is True


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_run_rejects_excluded_alpha(tmp_path, alpha, capsys):
    out = tmp_path / "o"
    code = run_cli(["run", "--alpha", str(alpha), "--mx", "4",
                    "--t-end", "0.001", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_run_deterministic_artifacts(tmp_path):
    args = ["run", "--mx", "4", "--t-end", "0.002", "--out", None]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(args[:-1] + [str(out1)])
    run_cli(args[:-1] + [str(out2)])
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
    assert (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()


def test_run_snapshots(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["run", "--mx", "4", "--t-end", "0.001", "--out", str(out),
                    "--snapshots"])
    assert code == 0
    snaps = sorted(os.listdir(out / "snapshots"))
    assert any(name.endswith(".f64") for name in snaps)
    assert any(name.endswith(".json") for name in snaps)
    from qcflow.lattice import load_field
    base = os.path.join(out, "snapshots", snaps[0].rsplit(".", 1)[0])
    f = load_field(base)
    assert f.grid.m_x == 4


def test_config_parser_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text("just a line without equals\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad2))


@pytest.mark.parametrize("line", ["amplitude = 1.5", "record_every = 0",
                                  "cfl_safety = 0", "m_x = none",
                                  "profile = gauss", "tau_profile = gauss",
                                  "width = 0.4", "width = 0"])
def test_run_rejects_invalid_config(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = run_cli(["run", "--config", str(cfg), "--mx", "4",
                    "--t-end", "0.001", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_follow_field_types(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snapshots = yes\ntau_width = none\nprofile = cosine\n"
                   "m_x = 4\nalpha = -1\n")
    values = parse_config_file(str(cfg))
    assert values == {"snapshots": True, "tau_width": None,
                      "profile": "cosine", "m_x": 4, "alpha": -1.0}
    assert type(values["m_x"]) is int and type(values["alpha"]) is float


def test_verdict_config_echo(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["run", "--mx", "4", "--t-end", "0.001",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["config"] == {
        "n": 1, "m_x": 4, "alpha": -0.05, "cfl_safety": 0.5, "t_end": 0.001,
        "record_every": 8, "width": 0.22, "amplitude": 0.3, "offset": 1.0,
        "tau_width": None, "tau_profile": "uniform", "profile": "smooth",
        "seed": 1, "m_t": 4, "h_x": 0.25, "h_t": 0.125, "L_t": 0.5,
        "format_version": "qcflow-cli-1"}


def test_readme_config_matches_flow_config(tmp_path):
    text = README.read_text()
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    FlowConfig(**parse_config_file(str(cfg)))
    # the key table lists every field with its default
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", text, re.M))
    assert list(table) == [f.name for f in fields(FlowConfig)]
    for f in fields(FlowConfig):
        if f.default is None:
            shown = "none"
        elif f.default is False:
            shown = "no"
        else:
            shown = str(f.default)
        assert table[f.name] == shown


def test_verify_algebra_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code1 = run_cli(["verify", "--suite", "algebra", "--seed", "1",
                     "--out", str(out1)])
    code2 = run_cli(["verify", "--suite", "algebra", "--seed", "1",
                     "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "verify_algebra.json").read_bytes()
    b2 = (out2 / "verify_algebra.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] is True
    assert report["format_version"]


def test_verify_geometry_and_roots(tmp_path):
    out = tmp_path / "v"
    assert run_cli(["verify", "--suite", "roots", "--out", str(out)]) == 0
    assert run_cli(["verify", "--suite", "geometry", "--out", str(out)]) == 0


def test_verify_theorem_not_applicable_alpha(tmp_path):
    # exploratory alpha outside the admissible interval: the theorem gate
    # reports not-applicable runs instead of failures
    out = tmp_path / "v"
    code = run_cli(["verify", "--suite", "theorem", "--mx", "4",
                    "--alpha", "0.7", "--out", str(out)])
    report = json.loads((out / "verify_theorem.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["alpha_admissible"] == "fail"
    assert all(v == "not_applicable" for k, v in statuses.items()
               if k.startswith("run"))
    assert code == 1  # admissibility itself is reported as failed


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        run_cli(["verify", "--suite", "bogus"])
