"""Batch command-line interface: heat-flow runs and verification suites.

Outputs are deterministic given the configuration and seed: an energy
time-series CSV, a monotonicity verdict JSON, optional binary field
snapshots, and per-suite JSON reports.  No timestamps are embedded, so
identical invocations produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import resource
import sys
from dataclasses import asdict
from typing import get_args, get_type_hints

from .energy import CSV_COLUMNS, derf_rhs, fill_numeric_rates, monotonicity_verdict
from .flow import FlowConfig, stream
from .identities import check_alpha
from .lattice import make_grid, save_field, sweep_bytes
from .suites import SUITE_BUILDERS, SUITE_NAMES, run_suite

FORMAT_VERSION = "qcflow-cli-1"


def config_echo(cfg: FlowConfig) -> dict:
    """The configuration as written into verdict.json, with the grid it
    implies."""
    data = asdict(cfg)
    # artifact locations do not affect the results; keep outputs
    # byte-identical across output directories
    del data["out"], data["snapshots"]
    grid = make_grid(cfg.n, cfg.m_x)
    data.update({"m_t": grid.m_t, "h_x": grid.h_x, "h_t": grid.h_t,
                 "L_t": grid.L_t, "format_version": FORMAT_VERSION})
    return data


_FIELD_TYPES = get_type_hints(FlowConfig)
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _coerce(name: str, raw: str):
    """Parse one config value by the type hint of its FlowConfig field."""
    typ = _FIELD_TYPES[name]
    options = get_args(typ)
    if raw.lower() in ("none", "null", ""):
        if type(None) not in options:
            raise ValueError(f"{name} may not be {raw!r}")
        return None
    if options:  # X | None
        typ = next(t for t in options if t is not type(None))
    if typ is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"cannot parse boolean {name}={raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"cannot parse {typ.__name__} {name}={raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat key = value lines, keys the FlowConfig fields; '#' starts a
    comment."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_run_config(args) -> FlowConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for name in ("alpha", "mx", "t_end", "seed", "out"):
        val = getattr(args, name, None)
        if val is not None:
            values["m_x" if name == "mx" else name] = val
    if args.snapshots:
        values["snapshots"] = True
    return FlowConfig(**values)


# whole float64 fields of a streamed run besides one record's Hessian
# sweep: the record, and the state the flow steps from while it steps.  The
# sweep's arrays (lattice.sweep_bytes) are a window of x_0 planes at
# m_x >= 8 and a whole jet below; under tracemalloc a whole streamed
# `qcflow run --snapshots` peaks at 3.6 fields at m_x = 8 (4.8 while the
# sweeps held five jet planes) and 7.2 at m_x = 7, against estimates of
# 4.72 and 8.95 (tests/test_cli.py).
RECORD_FIELDS = 2


def run_memory_bytes(cfg: FlowConfig) -> int:
    """Estimated peak bytes of `qcflow run` for cfg: RECORD_FIELDS whole
    float64 fields and the arrays of one record's largest Hessian sweep.
    Records are streamed and the step gathers keep no index table, so the
    estimate does not grow with the number of records.  Computed from the
    grid's size alone, without allocating a field."""
    grid = make_grid(cfg.n, cfg.m_x)
    return grid.size * 8 * RECORD_FIELDS + sweep_bytes(grid)


def available_memory() -> int | None:
    """Bytes the process may still allocate: the smaller of the kernel's
    MemAvailable and the RLIMIT_AS soft limit, or None when neither is
    known."""
    limits = []
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
                    break
    except OSError:
        pass
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    return min(limits, default=None)


def check_memory(cfg: FlowConfig):
    """Refuse a grid whose run cannot fit, before anything is allocated."""
    need = run_memory_bytes(cfg)
    avail = available_memory()
    if avail is not None and need > avail:
        raise ValueError(f"m_x={cfg.m_x} needs about {need / 2**20:.0f} MiB, "
                         f"only {avail / 2**20:.0f} MiB are available")


def cmd_run(args) -> int:
    """Stream the flow: every step is checked for mass drift, range
    expansion and positivity from the mass, minimum and maximum its update
    measured; every record gets its trajectory row, its energy report and
    its snapshot, and is then dropped."""
    try:
        cfg = build_run_config(args)
        check_memory(cfg)
        os.makedirs(cfg.out, exist_ok=True)
        snap_dir = os.path.join(cfg.out, "snapshots")
        if cfg.snapshots:
            os.makedirs(snap_dir, exist_ok=True)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations = []
    trajectory_rows = []
    reports = []
    try:
        for st in stream(cfg, measure=True):
            if st.step == 0:
                mass0, lo0, hi0 = st.mass, st.lo, st.hi
            if abs(st.mass - mass0) > 1e-12 * abs(mass0):
                violations.append(f"mass drift at t={st.time}")
            if st.lo < lo0 or st.hi > hi0:
                violations.append(f"range expansion at t={st.time}")
            if st.lo <= 0.0:
                violations.append(f"positivity lost at t={st.time}")
            if not st.record:
                continue
            trajectory_rows.append([st.step, st.time, st.mass, st.lo, st.hi])
            reports.append(derf_rhs(st.u, cfg.alpha, time=st.time))
            if cfg.snapshots:
                save_field(st.u, os.path.join(snap_dir, f"u_{st.step:08d}"))
    except (ValueError, RuntimeError) as exc:
        print(f"error: flow aborted: {exc}", file=sys.stderr)
        return 1
    fill_numeric_rates(reports)

    trajectory_path = os.path.join(cfg.out, "trajectory.csv")
    with open(trajectory_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "mass", "min_u", "max_u"])
        writer.writerows(trajectory_rows)

    csv_path = os.path.join(cfg.out, "energy.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow(rep.csv_row())

    verdict = monotonicity_verdict(reports, cfg.alpha, cfg.n) \
        if len(reports) >= 3 else None
    verdict_path = os.path.join(cfg.out, "verdict.json")
    payload = {"config": config_echo(cfg),
               "verdict": verdict.to_dict() if verdict else None,
               "violations": violations}
    with open(verdict_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)

    for line in violations:
        print(f"invariant violated: {line}", file=sys.stderr)
    print(f"wrote {csv_path} and {verdict_path} "
          f"({len(reports)} records, final t={reports[-1].time:.6g})")
    return 1 if violations else 0


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    settings = {key: val for key, val in (("m_x", args.mx), ("alpha", args.alpha))
                if val is not None}
    takes = {name: inspect.signature(SUITE_BUILDERS[name]).parameters for name in names}
    # a named suite refuses a setting it does not take; with --suite all
    # each setting goes to the suites that take it
    for key in settings if args.suite != "all" else ():
        if key not in takes[args.suite]:
            print(f"error: suite {args.suite} takes no {key} setting", file=sys.stderr)
            return 2
    # each setting is refused before any suite runs, so a refused setting
    # under --suite all leaves no partial report directory
    try:
        if args.alpha is not None:
            check_alpha(args.alpha)
        if args.mx is not None:
            make_grid(1, args.mx)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    for name in names:
        kwargs = {key: val for key, val in settings.items() if key in takes[name]}
        try:
            report = run_suite(name, seed=args.seed, **kwargs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = os.path.join(out_dir, f"verify_{name}.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] suite {name} ({len(report.checks)} checks, "
              f"{report.runtime_seconds:.1f}s) -> {path}")
        for c in report.checks:
            print(f"    [{c.status:>14}] {c.name}"
                  + (f": measured={c.measured:.6g}" if c.measured is not None else "")
                  + (f" threshold={c.threshold:.6g}" if c.threshold is not None else ""))
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcflow",
        description="Heat flow and verification suites on the compact "
                    "quaternionic Heisenberg model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the heat flow and write artifacts")
    p_run.add_argument("--config", help="flat key=value configuration file")
    p_run.add_argument("--alpha", type=float, default=None)
    p_run.add_argument("--mx", type=int, default=None)
    p_run.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--snapshots", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=list(SUITE_NAMES) + ["all"])
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--mx", type=int, default=None)
    p_ver.add_argument("--alpha", type=float, default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
