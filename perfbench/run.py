"""qcflow benchmark: run one workload for a seed and print its metrics.

    python3 perfbench/run.py --workload run-m8 --seed 1 --seconds 15 --trace 0

Workloads (why each is in the set: meta.json):
  run-m8      ``qcflow run --mx 8 --snapshots`` on a seeded config file
  steps-m8    ``flow.evolve`` for 160 steps at m_x = 8, cfl 0.9, plus the
              trajectory checks of ``qcflow run`` at every record
  theorem-m6  ``suites.theorem_suite(seed, m_x=6)``

Each unit runs in a fresh process (worker.py), one at a time, with the
numeric thread pools pinned to one thread.  Units repeat while the next one
should end within ``--seconds`` (at least one runs).  With ``--trace 0`` the
end-to-end metrics are medians over the units, and set-up-only processes
bring the set-up samples to MIN_SETUPS.  With ``--trace 1`` every unit is run
twice, untraced then traced, and the per-layer metrics come from the traced
units.

Every run checks its outputs: the worker's invariant and round-trip checks,
the values against reference.json when it holds the seed, and byte-identical
artifacts between the units of the run (traced and untraced alike).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (correctness checks) and ``metrics``.  A failing worker ends the
run with exit code 1 and no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("run-m8", "steps-m8", "theorem-m6")
DEFAULT_SEED = 1
MIN_SETUPS = 5
RUN_DEADLINE_S = 170.0
# energy.csv values may move by roundoff (<= 1e-13 relative) and no more;
# a 1 % error in any production coefficient moves them by >= 1e-3.  The
# absolute part admits roundoff around the exact zeros (term_L, min_pF).
ENERGY_RTOL = 1e-10
ENERGY_ATOL = 1e-15
# one thread of work: numpy's pools may not add threads of their own
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def bump_params(seed: int) -> tuple[float, float]:
    """Bump width in [0.2, 0.245) and amplitude in [0.2, 0.4), drawn in the
    order ``suites.theorem_configs`` draws its first run."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.2, 0.245)), float(rng.uniform(0.2, 0.4))


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.width, self.amplitude = bump_params(seed)
        self.config = work / "run.cfg"
        self.config.write_text(f"width = {self.width!r}\n"
                               f"amplitude = {self.amplitude!r}\n"
                               f"seed = {seed}\n")
        self.count = 0

    def worker(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"unit{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--width", repr(self.width), "--amplitude", repr(self.amplitude),
               "--config", str(self.config), "--out", str(out),
               "--trace", "1" if trace else "0"]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                               + proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shutil.rmtree(out, ignore_errors=True)
        return result


# reference and cross-unit checks --------------------------------------------

def _close(value: str, ref: str) -> bool:
    x, r = float(value), float(ref)
    if math.isnan(r):
        return math.isnan(x)
    return abs(x - r) <= ENERGY_RTOL * abs(r) + ENERGY_ATOL


def reference_checks(workload: str, observed: dict, ref: dict | None,
                     default_ref: dict) -> list[dict]:
    """Compare one unit's observed values with the committed reference.

    What no seed changes (the run-m8 verdict booleans, whether the theorem
    suite passes) is compared with the default seed's reference when the
    seed has none; the rest only when reference.json holds the seed.
    """
    checks = []

    def add(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    base = ref if ref is not None else default_ref
    if workload == "run-m8":
        add("verdict_equals_reference", observed["verdict"] == base["verdict"],
            f"{observed['verdict']} vs {base['verdict']}")
    elif workload == "theorem-m6":
        add("suite_passed_equals_reference", observed["passed"] == base["passed"],
            f"{observed['statuses']}")
    if ref is None:
        return checks
    if workload == "run-m8":
        rows, ref_rows = observed["energy_csv"], ref["energy_csv"]
        ok = len(rows) == len(ref_rows) and rows[0] == ref_rows[0]
        bad = []
        if ok:
            for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), 1):
                for col, value, expected in zip(ref_rows[0], row, ref_row):
                    if not _close(value, expected):
                        bad.append(f"row {i} {col}: {value} vs {expected}")
        add("energy_csv_within_tolerance", ok and not bad,
            f"rtol {ENERGY_RTOL:g}, atol {ENERGY_ATOL:g}; " + "; ".join(bad[:5]))
    elif workload == "steps-m8":
        add("final_field_hash_equals_reference",
            observed["final_sha256"] == ref["final_sha256"]
            and observed["records"] == ref["records"])
    else:
        add("suite_statuses_equal_reference",
            observed["statuses"] == ref["statuses"], f"{observed['statuses']}")
    return checks


def unit_checks(units: dict[str, dict], workload: str, seed: int,
                references: dict) -> list[dict]:
    """Every check of every unit, then each unit's artifacts against the
    first unit's, byte for byte."""
    refs = references[workload]
    checks = []
    for label, unit in units.items():
        for c in unit["checks"] + reference_checks(workload, unit["observed"],
                                                   refs.get(str(seed)),
                                                   refs[str(DEFAULT_SEED)]):
            checks.append({**c, "name": f"{label}.{c['name']}"})
    first_label, first = next(iter(units.items()))
    for label, unit in list(units.items())[1:]:
        checks.append({"name": f"{label}.artifacts_identical_to_{first_label}",
                       "ok": unit["digests"] == first["digests"],
                       "detail": f"{len(unit['digests'])} files"})
    return checks


# metrics --------------------------------------------------------------------

def median(values):
    return float(statistics.median(values))


def end_to_end(units, setups, checks) -> dict:
    failed = sum(not c["ok"] for c in checks)
    return {
        "setup_s": (median(setups), "s"),
        "run_s": (median([u["run_s"] for u in units]), "s"),
        "peak_rss_mb": (median([u["peak_rss_mb"] for u in units]), "MB"),
        "checks_passed_frac": (1.0 - failed / len(checks), "ratio"),
    }


def per_layer(plain, traced) -> dict:
    layers = {}
    for name, unit in LAYER_METRICS:
        if name in traced[0]["layers"]:
            layers[name] = (median([u["layers"][name] for u in traced]), unit)
    run_plain = median([u["run_s"] for u in plain])
    run_traced = median([u["run_s"] for u in traced])
    layers["trace.run_s"] = (run_traced, "s")
    layers["trace_overhead_frac"] = ((run_traced - run_plain) / run_plain, "ratio")
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool, references: dict):
    start = time.monotonic()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        runner = Runner(workload, seed, work, start + RUN_DEADLINE_S)
        plain, traced = [], []
        # start another unit only if it should end within the measuring time
        last = 0.0
        while not plain or time.monotonic() - start + last <= seconds:
            begun = time.monotonic()
            plain.append(runner.worker())
            if trace:
                traced.append(runner.worker(trace=True))
            last = time.monotonic() - begun
        setups = [u["setup_s"] for u in plain + traced]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(runner.worker(setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {f"unit{k}": u for k, u in enumerate(plain)}
    units.update({f"traced{k}": u for k, u in enumerate(traced)})
    checks = unit_checks(units, workload, seed, references)
    if trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups, checks)
    return plain, traced, setups, checks, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    references = json.loads((HERE / "reference.json").read_text())
    try:
        plain, traced, setups, checks, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace), references)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(not c["ok"] for c in checks)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced units, {len(setups)} set-ups")
    for c in checks:
        if not c["ok"]:
            print(f"check failed: {c['name']} {c['detail']}")
    print(f"checks_failed_frac {failed / len(checks):.6g} ratio "
          f"({failed} of {len(checks)} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
