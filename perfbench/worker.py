"""One benchmark unit in a fresh process: set-up, then the workload unit.

run.py starts this script once per unit, one process at a time, and reads
the JSON object it prints as its last line of standard output.  The process
first times the set-up (import ``qcflow``, build the grid with all eight
step-permutation tables, build the initial field), frees it, then times the
unit with tracing off, or with the tracer of tracer.py when ``--trace 1``.
Checks that need ``qcflow`` run after the timed region; ``ru_maxrss`` is read
last, so it covers the whole process.

    python3 perfbench/worker.py --workload run-m8 --seed 1 --width 0.22 \\
        --amplitude 0.3 --out DIR [--trace 1] [--setup-only]
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
M_X = {"run-m8": 8, "steps-m8": 8, "theorem-m6": 6}
ALPHA = -0.05
STEPS_M8_STEPS = 160
STEPS_M8_SAFETY = 0.9
RECORD_EVERY = 8
MASS_RTOL = 1e-12


def setup(m_x: int, width: float, amplitude: float) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from qcflow import flow, lattice

    grid = lattice.make_grid(1, m_x)
    for a in range(grid.dim_h):
        for direction in (1, -1):
            grid.step_permutation(a, direction)
    flow.initial_field(flow.FlowConfig(n=1, m_x=m_x, width=width,
                                       amplitude=amplitude,
                                       tau_profile="uniform"), grid)
    return time.perf_counter() - t0


def record_invariants(states):
    """The trajectory checks of ``qcflow run``, applied at every record."""
    from qcflow.lattice import integrate

    rows = []
    for st in states:
        rows.append((st.step, integrate(st.u), float(st.u.values.min()),
                     float(st.u.values.max())))
    return rows


# units ---------------------------------------------------------------------
# each returns what the checks after the timed region need

def unit_run_m8(args, out: Path):
    from qcflow import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", args.config, "--mx", "8",
                         "--snapshots", "--out", str(out)])
    return code


def unit_steps_m8(args, out: Path):
    from qcflow import flow, lattice

    dt = flow.cfl_timestep(lattice.make_grid(1, 8), STEPS_M8_SAFETY)
    cfg = flow.FlowConfig(n=1, m_x=8, alpha=ALPHA, cfl_safety=STEPS_M8_SAFETY,
                          t_end=STEPS_M8_STEPS * dt, record_every=RECORD_EVERY,
                          width=args.width, amplitude=args.amplitude,
                          offset=1.0, tau_profile="uniform")
    states = flow.evolve(cfg)
    return states, record_invariants(states)


def unit_theorem_m6(args, out: Path):
    from qcflow import suites

    report = suites.theorem_suite(args.seed, m_x=6)
    (out / "verify_theorem.json").write_text(report.to_json())
    return report


UNITS = {"run-m8": unit_run_m8, "steps-m8": unit_steps_m8,
         "theorem-m6": unit_theorem_m6}


# checks after the timed region ----------------------------------------------

class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})


def invariant_checks(checks: Checks, rows):
    """Mass drift <= 1e-12 at every record; the range never grows; u > 0."""
    mass0 = rows[0][1]
    drift = max(abs(r[1] - mass0) for r in rows) / abs(mass0)
    checks.add("mass_drift", drift <= MASS_RTOL, f"max relative drift {drift:.3e}")
    grows = [r[0] for prev, r in zip(rows, rows[1:])
             if r[2] < prev[2] or r[3] > prev[3]]
    checks.add("range_never_grows", not grows, f"grows at steps {grows}")
    checks.add("positive", min(r[2] for r in rows) > 0.0)


def file_digests(out: Path) -> dict:
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check_run_m8(code, out: Path, checks: Checks) -> dict:
    import numpy as np
    from qcflow import lattice

    checks.add("cli_exit_code", code == 0, f"exit code {code}")
    with open(out / "trajectory.csv", newline="") as fh:
        traj = [(int(r[0]), float(r[2]), float(r[3]), float(r[4]))
                for r in list(csv.reader(fh))[1:]]
    invariant_checks(checks, traj)
    # every snapshot must load bit-exactly and hold the recorded state
    snaps = sorted((out / "snapshots").glob("*.f64"))
    checks.add("snapshot_count", len(snaps) == len(traj),
               f"{len(snaps)} snapshots, {len(traj)} records")
    for path, (step, mass, lo, hi) in zip(snaps, traj):
        field = lattice.load_field(str(path.with_suffix("")))
        exact = field.values.tobytes() == path.read_bytes()
        same_state = (lattice.integrate(field) == mass
                      and float(np.min(field.values)) == lo
                      and float(np.max(field.values)) == hi
                      and path.stem == f"u_{step:08d}")
        checks.add(f"snapshot_roundtrip_{step}", exact and same_state)
    with open(out / "energy.csv", newline="") as fh:
        energy_rows = list(csv.reader(fh))
    verdict = json.loads((out / "verdict.json").read_text())
    checks.add("no_violations", verdict["violations"] == [], str(verdict["violations"]))
    return {"energy_csv": energy_rows,
            "verdict": {k: v for k, v in verdict["verdict"].items()
                        if isinstance(v, bool)}}


def check_steps_m8(result, out: Path, checks: Checks) -> dict:
    states, rows = result
    invariant_checks(checks, rows)
    final = states[-1].u.values
    digest = hashlib.sha256(memoryview(final).cast("B")).hexdigest()
    checks.add("step_count", states[-1].step == STEPS_M8_STEPS,
               f"final step {states[-1].step}")
    # the artifact of this unit: the record trajectory and the final field
    with open(out / "trajectory.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    (out / "final.sha256").write_text(digest + "\n")
    return {"final_sha256": digest, "records": len(states)}


def check_theorem_m6(report, out: Path, checks: Checks) -> dict:
    checks.add("suite_report_written", (out / "verify_theorem.json").is_file())
    return {"passed": report.passed,
            "statuses": {c.name: c.status for c in report.checks}}


CHECKERS = {"run-m8": check_run_m8, "steps-m8": check_steps_m8,
            "theorem-m6": check_theorem_m6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(M_X))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--width", type=float, required=True)
    parser.add_argument("--amplitude", type=float, required=True)
    parser.add_argument("--config", help="flat config file for run-m8")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_s = setup(M_X[args.workload], args.width, args.amplitude)
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        import qcflow
        import qcflow.cli  # noqa: F401  (imported outside the timed unit)

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tracer = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer(qcflow)
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            unit_result = UNITS[args.workload](args, out)
            result["run_s"] = time.perf_counter() - t0
        checks = Checks()
        result["observed"] = CHECKERS[args.workload](unit_result, out, checks)
        del unit_result
        result["checks"] = checks.results
        result["digests"] = file_digests(out)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
