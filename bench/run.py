"""xymeas benchmark.

    python3 bench/run.py --workload {pipeline,sweep,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each workload run starts a fresh
interpreter (worker.py) that imports ``xymeas.cli`` from ``src/`` and sends
the workload's CLI commands to ``xymeas.cli.main`` in-process, one after
another: a closed loop with one client. Runs repeat, each with the same
inputs, until ``--seconds`` have passed; timings are medians over the runs.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1``, runs alternate untraced and traced
and it holds the per-layer metrics instead (see layers.py). Every worker
runs on one CPU (see worker.py), so no workload measures a parallel
speed-up. Outputs are checked outside the timed region and every failed
command or check counts in ``failed``. See README.md in this directory for
why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden_counts.json"

# Every workload run gives one set-up sample; import-only runs top them up
# to this many when the workload runs were fewer.
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150
# The traced layer spans must cover traced wall_s to within trace.overhead_s,
# or to within this, whichever is larger: a paired difference of two runs'
# wall times is no finer than this on the machine the bounds were set on.
COVERAGE_FLOOR_S = 0.01

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def spawn(spec: dict) -> dict:
    """Run worker.py on ``spec``; its result plus ``setup_s``."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["xymeas_file"]).resolve() != (Path(src) / "xymeas" / "cli.py").resolve():
        raise BenchError(f"imported {result['xymeas_file']}, not the checkout's source")
    result["setup_s"] = result["ready"] - started
    return result


def check_run(workload: workloads.Workload, result: dict) -> list[tuple[str, bool, str]]:
    """Every operation of one run as ``(name, passed, detail)``."""
    ops = [
        (f"command {i} ({argv[0]})", code == 0, err.strip()[-300:])
        for i, (argv, (_lat, code, _out, err)) in enumerate(zip(workload.commands, result["commands"]))
    ]
    ops += workloads.check_outputs(workload, [out for _lat, _code, out, _err in result["commands"]])
    for argv, (_lat, code, _out, err) in zip(workload.gate, result["gate"]):
        ops.append((f"gate command ({argv[0]} --workers 1)", code == 0, err.strip()[-300:]))
    for again, original in workload.gate_pairs:
        same = Path(again).is_file() and Path(again).read_bytes() == Path(original).read_bytes()
        ops.append((f"workers 1 == workers 2: {Path(original).name}", same, ""))
    if workload.seed == workloads.DEFAULT_SEED and workload.sizes == workloads.PINNED and workload.counts:
        golden = json.loads(GOLDEN.read_text())[workload.name]
        for path in workload.counts:
            name = Path(path).name
            same = Path(path).is_file() and workloads.sha256(path) == golden.get(name)
            ops.append((f"golden sha256: {name}", same, ""))
    return ops


def run_metrics(workload: workloads.Workload, result: dict) -> dict:
    """End-to-end figures of one untraced run."""
    latencies = [lat for lat, _code, _out, _err in result["commands"]]
    if workload.name == "verify":
        throughput = workload.cases / latencies[0]
    else:
        simulate_s = sum(lat for argv, lat in zip(workload.commands, latencies) if argv[0] == "simulate")
        throughput = workload.shots / simulate_s
    return {
        "wall_s": result["wall_s"],
        "throughput_per_s": throughput,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "latencies": latencies,
    }


def trace_metrics(result: dict, spans_file: Path, untraced_wall_s: float) -> dict:
    """Per-layer figures of one traced run; ``untraced_wall_s`` is the run just before it."""
    spans = json.loads(spans_file.read_text())
    metrics = layers.layer_metrics(spans)
    main_s = sum(s[4] - s[3] for s in spans if s[2] == "cli.main")
    metrics["trace.wall_s"] = result["wall_s"]
    metrics["trace.overhead_s"] = result["wall_s"] - untraced_wall_s
    metrics["trace.uncovered_s"] = result["wall_s"] - main_s
    return metrics


def covered(per_layer: dict) -> bool:
    """Whether cli.self_s plus the top-level layer spans cover traced wall_s to within the tracing overhead."""
    return per_layer["trace.uncovered_s"] <= max(per_layer["trace.overhead_s"], COVERAGE_FLOOR_S)


def environment(worker_env: dict) -> dict:
    """Machine and build facts stored with every result."""
    env = {"nproc": os.cpu_count(), "cpu_model": "unknown", **worker_env}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    env["git_commit"] = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    return env


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  sizes: workloads.Sizes = workloads.PINNED) -> dict:
    """Repeat workload ``name`` for ``seconds``; checks, metrics and environment."""
    if not (ROOT / "src" / "xymeas" / "cli.py").is_file():
        raise BenchError(f"no xymeas source under {ROOT / 'src'}; run from a source checkout")
    scratch = BENCH / ".work" / f"{name}-{os.getpid()}"
    work = scratch / "run"
    spans_file = scratch / "spans.json"
    workload = workloads.build(name, seed, work, sizes)
    ops, setups, plain, traced = [], [], [], []
    try:
        spawn({"commands": []})  # compiles bytecode and warms the file cache; not timed
        start = time.monotonic()
        while True:
            tracing = trace and len(plain) > len(traced)
            shutil.rmtree(work, ignore_errors=True)
            (work / "gate").mkdir(parents=True)
            spec = {"commands": workload.commands, "gate": workload.gate,
                    "trace_file": str(spans_file) if tracing else None}
            result = spawn(spec)
            setups.append(result["setup_s"])
            run_ops = check_run(workload, result)
            for op, passed, detail in run_ops:
                if not passed:
                    print(f"FAILED {op}: {detail}", file=sys.stderr)
            ops += run_ops
            if tracing:
                traced.append(trace_metrics(result, spans_file, plain[-1]["wall_s"]))
            else:
                plain.append(run_metrics(workload, result))
            if time.monotonic() - start >= seconds and (traced or not trace):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn({"commands": []})["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            scratch.parent.rmdir()

    latencies = [lat for run in plain for lat in run["latencies"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "throughput_per_s": statistics.median(r["throughput_per_s"] for r in plain),
        "cmd_p50_ms": percentile(latencies, 50) * 1e3,
        "cmd_p95_ms": percentile(latencies, 95) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    per_layer = None
    if trace:
        per_layer = {key: statistics.median(r[key] for r in traced) for key in traced[0]}
    failed = sum(not passed for _op, passed, _detail in ops)
    return {
        "workload": name,
        "seed": seed,
        "runs": len(plain),
        "traced_runs": len(traced),
        "commands_per_run": len(workload.commands),
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "env": environment(result["env"]),
    }


def report(summary: dict) -> str:
    """Human-readable table of every metric with its unit."""
    e2e = summary["end_to_end"]
    throughput = "models_per_s" if summary["workload"] == "verify" else "shots_per_s"
    lines = [
        f"workload {summary['workload']}  seed {summary['seed']}  runs {summary['runs']} "
        f"(+{summary['traced_runs']} traced)  {summary['commands_per_run']} commands per run",
        f"  setup_s          {e2e['setup_s']:.6f} s   (median of {summary['setup_samples']})",
        f"  wall_s           {e2e['wall_s']:.6f} s   (median of {summary['runs']} runs)",
        f"  {throughput:<16} {e2e['throughput_per_s']:.6g} 1/s  (reported as throughput_per_s)",
        f"  cmd_p50_ms       {e2e['cmd_p50_ms']:.4f} ms  (over {summary['latency_samples']} commands)",
        f"  cmd_p95_ms       {e2e['cmd_p95_ms']:.4f} ms",
        f"  peak_rss_mb      {e2e['peak_rss_mb']:.3f} MB",
        f"  error_rate       {summary['failed'] / summary['attempted']:.6g}   "
        f"({summary['failed']} failed of {summary['attempted']} operations)",
    ]
    if summary["per_layer"]:
        for key, unit in layers.METRICS.items():
            lines.append(f"  {key:<36} {summary['per_layer'][key]:.6g} {unit}")
        lines.append(f"  layer spans cover traced wall_s to within max(trace.overhead_s, {COVERAGE_FLOOR_S} s): "
                     f"{'yes' if covered(summary['per_layer']) else 'NO'}")
    lines.append("  env " + json.dumps(summary["env"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(report(summary))
    if args.trace:
        metrics = {k: {"value": summary["per_layer"][k], "unit": u} for k, u in layers.METRICS.items()}
    else:
        metrics = {k: {"value": summary["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
