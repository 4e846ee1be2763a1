"""Write the observed outputs of the checked-out program into reference.json.

    python3 perfbench/make_reference.py --workload run-m8 --seeds 1 2 3

Runs one untraced unit per seed and stores what run.py compares against:
the energy.csv rows and verdict booleans of run-m8, the final field hash of
steps-m8 and the check statuses of theorem-m6.  Entries for other workloads
and seeds are kept.  Run it only on the commit whose outputs define the
reference, and only after its own checks pass.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, RUN_DEADLINE_S, WORKLOADS, Runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    path = HERE / "reference.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    entries = references.setdefault(args.workload, {})
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    for seed in args.seeds:
        work = tempfile.mkdtemp(prefix="reference-", dir=work_root)
        try:
            runner = Runner(args.workload, seed, Path(work),
                            time.monotonic() + RUN_DEADLINE_S)
            unit = runner.worker()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = [c for c in unit["checks"] if not c["ok"]]
        if failed:
            print(f"seed {seed}: checks failed, not stored: {failed}", file=sys.stderr)
            return 1
        entries[str(seed)] = unit["observed"]
        print(f"{args.workload} seed {seed}: stored")
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
