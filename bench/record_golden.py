"""Record the sha256 of every counts file at the default workload seed.

    python3 bench/record_golden.py

Writes golden_counts.json, which the benchmark compares against whenever it
runs at the default seed. Counts files are a contract (byte-identical for a
given seed and any worker count), so re-record only when a change is meant
to alter them, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    golden = {}
    work = run.BENCH / ".work" / "golden"
    try:
        for name in ("pipeline", "sweep"):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = workloads.build(name, workloads.DEFAULT_SEED, work)
            result = run.spawn({"commands": workload.commands})
            if any(code != 0 for _lat, code, _out, _err in result["commands"]):
                print(f"{name}: a command failed; nothing recorded", file=sys.stderr)
                return 1
            golden[name] = {Path(p).name: workloads.sha256(p) for p in workload.counts}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
