"""One workload run in a fresh interpreter; started by run.py, not by hand.

Reads a JSON spec on stdin: ``commands`` (timed CLI command lines),
``gate`` (command lines run after the timed region) and ``trace_file``
(where to dump spans, or null for an untraced run). Every command goes
through ``xymeas.cli.main`` in this process, one after another, with its
stdout and stderr captured. Prints one JSON result line.

The process pins itself to one CPU first. On a 2-vCPU virtual machine,
runs whose two pool threads used both vCPUs swung with the host's load far
more than runs on one CPU; ``--workers 2`` still runs the thread pool, on
that one CPU, so no workload measures a parallel speed-up.
``xymeas.cli`` is imported next, so the CLOCK_MONOTONIC reading taken
right after it marks the end of set-up for the parent.
"""

import os
import sys
import time

if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import xymeas.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_commands(commands, tracer=None):
    """(latency s, exit code, stdout) per command line, run back to back."""
    records = []
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.run = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = xymeas.cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                code = -1
        records.append((time.perf_counter() - start, code, out.getvalue(), err.getvalue()))
    return records


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace_file"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    records = run_commands(spec["commands"], tracer)
    wall = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.restore()
        tracer.dump(spec["trace_file"])
    gate = run_commands(spec.get("gate", []))

    import numpy
    import xymeas.simulate

    print(json.dumps({
        "ready": READY,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "commands": records,
        "gate": gate,
        "xymeas_file": xymeas.cli.__file__,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "BLOCK_SHOTS": xymeas.simulate.BLOCK_SHOTS,
            "RNG_ID": xymeas.simulate.RNG_ID,
            "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
    }))


if __name__ == "__main__":
    main()
