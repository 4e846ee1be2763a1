"""Tests for the batch CLI."""
import ast
import csv
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from qcflow import cli, flow, lattice, suites
from qcflow.cli import config_echo, main, parse_config_file
from qcflow.energy import CSV_COLUMNS, derf_rhs, fill_numeric_rates, monotonicity_verdict
from qcflow.flow import FlowConfig, cfl_timestep, evolve
from qcflow.lattice import ScalarField, integrate, make_grid

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


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
def test_run_artifacts_do_not_depend_on_the_cores(tmp_path):
    # m_x = 5 spans several point blocks, which the block passes share among
    # every core of the affinity mask; taskset confines them to one core
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cpu = str(min(os.sched_getaffinity(0)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_x = 5\nt_end = 0.004\nrecord_every = 1\nsnapshots = yes\n")
    outs = {}
    for name, prefix in (("native", []), ("one-core", ["taskset", "-c", cpu])):
        outs[name] = tmp_path / name
        cmd = prefix + [sys.executable, "-m", "qcflow.cli", "run", "--config", str(cfg),
                        "--out", str(outs[name])]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    files = sorted(p.relative_to(outs["native"]) for p in outs["native"].rglob("*")
                   if p.is_file())
    assert any(p.suffix == ".f64" for p in files)
    assert files == sorted(p.relative_to(outs["one-core"])
                           for p in outs["one-core"].rglob("*") if p.is_file())
    for rel in files:
        native, one_core = (outs[name] / rel for name in ("native", "one-core"))
        assert native.read_bytes() == one_core.read_bytes(), rel


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


def _csv_bytes(rows):
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


def test_streamed_run_matches_the_record_list(tmp_path):
    # the artifacts of the streamed run equal those built from the held
    # records of evolve, derf_rhs per record and monotonicity_verdict
    path = tmp_path / "run.cfg"
    path.write_text("m_x = 4\nt_end = 0.02\nrecord_every = 4\n")
    out = tmp_path / "o"
    assert run_cli(["run", "--config", str(path), "--out", str(out)]) == 0
    cfg = FlowConfig(**parse_config_file(str(path)))
    states = evolve(cfg)
    reports = fill_numeric_rates([derf_rhs(st.u, cfg.alpha, time=st.time) for st in states])
    verdict = monotonicity_verdict(reports, cfg.alpha, cfg.n)
    assert len(states) >= 3
    assert (out / "trajectory.csv").read_bytes() == _csv_bytes(
        [["step", "time", "mass", "min_u", "max_u"]]
        + [[st.step, st.time, integrate(st.u), float(st.u.values.min()),
            float(st.u.values.max())] for st in states])
    assert (out / "energy.csv").read_bytes() == _csv_bytes(
        [CSV_COLUMNS] + [rep.csv_row() for rep in reports])
    payload = {"config": config_echo(cfg), "verdict": verdict.to_dict(),
               "violations": []}
    assert (out / "verdict.json").read_text() == json.dumps(payload, indent=1,
                                                            sort_keys=True)


def test_run_checks_the_invariants_at_every_step(tmp_path, monkeypatch, capsys):
    # step 3 gains mass and step 4 gives it back, so every record (each 8th
    # step) conserves mass: only a check of every step sees the drift
    # (the stream's step measures the mass of the field it returns, so the
    # leaky step measures its own)
    real_step = flow.euler_step
    calls = []
    factor = 1.0 + 1e-9

    def leaky_step(u, dt, u_min, measure=False):
        calls.append(dt)
        if len(calls) == 3:
            v = ScalarField(u.grid, real_step(u, dt, u_min, measure)[0].values * factor)
            return v, integrate(v), float(v.values.min()), float(v.values.max())
        if len(calls) == 4:
            return real_step(ScalarField(u.grid, u.values / factor), dt, u_min / factor,
                             measure)
        return real_step(u, dt, u_min, measure)

    monkeypatch.setattr(flow, "euler_step", leaky_step)
    out = tmp_path / "o"
    code = run_cli(["run", "--mx", "4", "--t-end", "0.02", "--out", str(out)])
    assert len(calls) > 8
    message = f"mass drift at t={3 * calls[0]}"
    assert code == 1
    assert f"invariant violated: {message}" in capsys.readouterr().err
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["violations"] == [message]


def test_run_refuses_a_grid_that_cannot_fit(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    need = cli.run_memory_bytes(FlowConfig(m_x=4))
    # 2 whole fields and the arrays of F's Hessian sweep
    grid = make_grid(1, 4)
    assert need == grid.size * 8 * 2 + lattice.sweep_bytes(grid)
    monkeypatch.setattr(cli, "available_memory", lambda: need - 1)
    code = run_cli(["run", "--mx", "4", "--t-end", "0.001", "--out", str(out)])
    assert code == 2
    assert "MiB" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(cli, "available_memory", lambda: need)
    assert run_cli(["run", "--mx", "4", "--t-end", "0.001", "--out", str(out)]) == 0


@pytest.mark.skipif(cli.available_memory() is None, reason="no memory reading")
def test_run_refuses_an_oversized_grid_before_allocating(tmp_path, capsys):
    # m_x = 60 has 60^7 points: 450 TB by the estimate
    out = tmp_path / "o"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = run_cli(["run", "--mx", "60", "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "m_x=60" in capsys.readouterr().err
    assert not out.exists()
    assert elapsed < 0.5
    assert peak < 2**20


@pytest.mark.parametrize("m", [7, 8])
def test_the_memory_estimate_covers_a_streamed_run(m, tmp_path):
    # the estimate that check_memory refuses a grid by is at least what a
    # streamed `qcflow run --snapshots` allocates at its peak: at m_x = 8,
    # where a record's sweeps hold a window of planes, and at m_x = 7, where
    # they hold the whole field as one slab
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = run_cli(["run", "--mx", str(m), "--snapshots", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= cli.run_memory_bytes(FlowConfig(m_x=m))


def test_run_peak_memory_does_not_grow_with_the_records(tmp_path):
    # the run holds one record at a time: 2 records and 17 records peak
    # within one whole field of each other (each run builds its own tables)
    grid = make_grid(1, 5)
    t_end = 15.5 * cfl_timestep(grid, 0.5)  # 16 steps
    peaks, lines = {}, {}
    for every in (16, 16, 1):  # the first run warms up the pools and caches
        path = tmp_path / f"run{every}.cfg"
        path.write_text(f"m_x = 5\nt_end = {t_end!r}\nrecord_every = {every}\n"
                        "snapshots = yes\n")
        out = tmp_path / f"o{every}"
        tracemalloc.start()
        try:
            assert run_cli(["run", "--config", str(path), "--out", str(out)]) == 0
            peaks[every] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines[every] = len((out / "trajectory.csv").read_text().splitlines())
    assert lines == {16: 3, 1: 18}
    assert abs(peaks[1] - peaks[16]) < 8 * grid.size


def test_run_and_theorem_suite_stream_the_flow():
    # evolve holds every record of a trajectory; the long consumers take
    # flow.stream one state at a time instead, and none of them steps a
    # field itself: stream is the one loop that advances a field
    held = {"evolve", "euler_step", "heat_step"}
    for func in (cli.cmd_run, suites.theorem_suite, suites.flow_suite):
        called = set()
        for node in ast.walk(ast.parse(inspect.getsource(func))):
            if isinstance(node, ast.Call):
                target = node.func
                called.add(target.id if isinstance(target, ast.Name)
                           else getattr(target, "attr", None))
        assert "stream" in called, func.__name__
        assert not called & held, func.__name__


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
                                  "profile = cosine", "tau_width = 0.01",
                                  "width = 0.4", "width = 0", "alpha = nan",
                                  "amplitude = inf", "offset = nan"])
def test_run_rejects_invalid_config(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = run_cli(["run", "--config", str(cfg), "--mx", "4",
                    "--t-end", "0.001", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_negative_t_end(tmp_path, capsys):
    # a negative horizon made 0 steps, wrote one record and exited 0
    out = tmp_path / "o"
    code = run_cli(["run", "--mx", "3", "--t-end", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: t_end")
    assert not out.exists()


def test_run_refuses_a_bump_that_is_zero_on_every_grid_point(tmp_path, capsys):
    # at m_x = 3 a bump of width 0.05 reaches no grid point: the run would
    # be a constant field with energy 0 in every row
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("width = 0.05\n")
    code = run_cli(["run", "--config", str(cfg), "--mx", "3", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flow aborted: ") and "zero on every point" in err


@pytest.mark.parametrize("args", [["--t-end", "inf"], ["--t-end", "nan"], ["--alpha", "nan"],
                                  ["--alpha=-inf"], ["tau_width = inf"], ["tau_width = nan"],
                                  ["tau_width = 0"], ["tau_width = -0.05"]])
def test_run_refuses_settings_that_are_not_finite(tmp_path, capsys, args):
    # `--t-end inf` ended in an OverflowError traceback and `--alpha nan`
    # wrote an energy.csv of NaN: both are refused before the run starts,
    # as is a tau_width under a smooth vertical profile, from a config file,
    # that is not finite and > 0
    if args[0].startswith("tau_width"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tau_profile = smooth\n{args[0]}\n")
        args = ["--config", str(cfg)]
    out = tmp_path / "o"
    code = run_cli(["run", "--mx", "3", *args, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
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


def test_verify_lemma_deterministic(tmp_path):
    # the lemma suite fails its documented gate (criterion 6b), so both
    # runs exit 1, with byte-identical reports
    outs = [tmp_path / "v1", tmp_path / "v2"]
    codes = [run_cli(["verify", "--suite", "lemma", "--mx", "4", "--out", str(out)])
             for out in outs]
    assert codes[0] == codes[1]
    b1, b2 = ((out / "verify_lemma.json").read_bytes() for out in outs)
    assert b1 == b2
    report = json.loads(b1)
    assert report["suite"] == "lemma" and report["config"]["m_x"] == 4
    assert codes[0] == (0 if report["passed"] else 1)


def test_verify_geometry_and_roots(tmp_path):
    out = tmp_path / "v"
    assert run_cli(["verify", "--suite", "roots", "--out", str(out)]) == 0
    assert run_cli(["verify", "--suite", "geometry", "--out", str(out)]) == 0


def test_verify_theorem_not_applicable_alpha(tmp_path, monkeypatch):
    # exploratory alpha outside the admissible interval: the theorem gate
    # reports not-applicable runs instead of failures, without running a flow
    def no_stream(*args, **kw):
        raise AssertionError("the theorem suite streamed a flow it cannot judge")

    monkeypatch.setattr(suites, "stream", no_stream)
    out = tmp_path / "v"
    code = run_cli(["verify", "--suite", "theorem", "--mx", "4",
                    "--alpha", "0.7", "--out", str(out)])
    report = json.loads((out / "verify_theorem.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["alpha_admissible"] == "fail"
    assert all(v == "not_applicable" for k, v in statuses.items()
               if k.startswith("run"))
    assert code == 1  # admissibility itself is reported as failed


# sha256 of flow_suite(seed=1, m_x=m, steps=s).to_json(), pinned when the
# suite stepped its fields with its own loops; m = 5 is odd, so the blocks
# cut fibres, and 0 steps passes every check on the initial field
FLOW_SUITE_SHA256 = {
    (4, 0): "be500ee503a3e65d889d129be97bd641453b802f6e3df3dd4c829908f0c9be1b",
    (4, 20): "1a53b7e734ff62ca1389a560e707f1420fab5a301ca604cc4373983b987738af",
    (5, 7): "516fd115db19a4b4824285ee45b8e30bf48f5f2903598baaa4c1ce08119869b9",
}


@pytest.mark.parametrize("m, steps", sorted(FLOW_SUITE_SHA256))
def test_flow_suite_report_bytes_are_pinned(m, steps):
    report = suites.flow_suite(seed=1, m_x=m, steps=steps)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == FLOW_SUITE_SHA256[m, steps]


@pytest.mark.parametrize("args, named", [(["--suite", "lemma", "--alpha", "0.5"], "alpha"),
                                         (["--suite", "geometry", "--mx", "1"], "m_x"),
                                         (["--suite", "calculus", "--mx", "6"], "m_x"),
                                         (["--suite", "roots", "--alpha", "0.3"], "alpha"),
                                         (["--suite", "calculus", "--alpha", "nan"], "alpha"),
                                         (["--suite", "all", "--alpha", "nan"], "alpha"),
                                         (["--suite", "all", "--mx", "1"], "m_x")])
def test_verify_refuses_bad_settings_with_an_error_line(tmp_path, capsys, args, named):
    # a setting the suite refuses, or one a named suite does not take, is
    # reported as `qcflow run` reports one, not as a traceback or in silence,
    # and no report is written (a NaN alpha wrote NaN literals, not JSON);
    # under --suite all no suite runs, so none writes its report first
    code = run_cli(["verify", *args, "--out", str(tmp_path / "v")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not list(tmp_path.glob("v/verify_*.json"))


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        run_cli(["verify", "--suite", "bogus"])
