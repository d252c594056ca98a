"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--out FILE]

Runs the benchmark ten times on every workload in BENCHMARK.json, each time
with another seed,
and reports for every end-to-end metric its median and the distance
between its first and third quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json. A spread should stay below a third
of its bound (``setup_s`` is exempt from the spread rule). With ``--out``
the medians, spreads and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101
RUNS = 10


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary, env, ok = {}, None, True
    for name in (w["name"] for w in config["workloads"]):
        values = {metric: [] for metric in bounds}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            proc = subprocess.run(
                [*config["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = json.loads(next(line for line in lines if line.startswith("  env ")).split(" ", 3)[3])
            ok &= result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        summary[name] = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            steady = metric == "setup_s" or spread < bounds[metric] / 3
            summary[name][metric] = {"median": median, "spread": spread, "values": vals}
            print(f"{name:<9} {metric:<17} median {median:<14.6g} spread {spread:7.2%} "
                  f"bound {bounds[metric]:.0%} {'ok' if steady else 'WIDE'}")
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED")
    if args.out:
        args.out.write_text(json.dumps({"env": env, "runs": RUNS, "first_seed": FIRST_SEED,
                                        "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
