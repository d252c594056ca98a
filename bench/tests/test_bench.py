"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests -q

The smoke test runs every workload at tiny sizes; the golden test runs the
pipeline and sweep workloads once at their pinned sizes (a few seconds).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = workloads.Sizes(pipeline_shots=70_000, sweep_points=3, sweep_shots=1000, verify_grid=3, verify_samples=50)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(sid, parent, name, start, end, thread=1, n=0):
    return (sid, parent, name, start, end, thread, 0, n)


class TestSelfTime:
    def test_union_clips_and_merges(self):
        assert layers.union_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
        assert layers.union_length([(-5, 1), (9, 20)], 0, 10) == 2
        assert layers.union_length([], 0, 10) == 0

    def test_nested_layers(self):
        spans = [
            span(1, None, "cli.main", 0.0, 10.0),
            span(2, 1, "simulate.run_pair_experiment", 1.0, 6.0, n=500),
            span(3, 2, "povm.build_povm", 1.5, 2.0),
            span(4, 2, "simulate.block_rng", 2.0, 3.0),
            span(5, 2, "simulate.draw", 3.0, 4.0),
            span(6, 1, "fileio.write_pair_counts", 7.0, 8.0),
            span(7, 6, "fileio.write_document", 7.2, 7.9, n=120),
        ]
        m = layers.layer_metrics(spans)
        assert m["cli.self_s"] == pytest.approx(10 - 5 - 1)
        assert m["simulate.run_s"] == pytest.approx(5)
        assert m["simulate.sample_count_s"] == pytest.approx(5 - 0.5 - 1 - 1)
        assert m["simulate.shots"] == 500 and m["simulate.blocks"] == 1
        assert m["povm.calls"] == 1 and m["povm.build_s"] == pytest.approx(0.5)
        # a call inside its own layer belongs to the entry span, not beside it
        assert m["fileio.write_s"] == pytest.approx(1.0)
        assert m["fileio.files_written"] == 1 and m["fileio.bytes_written"] == 120

    def test_overlapping_pool_threads(self):
        spans = [
            span(1, None, "cli.main", 0.0, 12.0),
            span(2, 1, "simulate.run_eigenstate_experiment", 0.0, 10.0),
            span(3, 2, "simulate.block_rng", 1.0, 2.0, thread=2),
            span(4, 2, "simulate.draw", 2.0, 5.0, thread=2),
            span(5, 2, "simulate.block_rng", 1.5, 2.5, thread=3),
            span(6, 2, "simulate.draw", 2.5, 6.0, thread=3),
        ]
        m = layers.layer_metrics(spans)
        assert m["simulate.block_rng_s"] == pytest.approx(2.0)
        assert m["simulate.draw_s"] == pytest.approx(6.5)
        # the four child spans cover [1, 6] once, though their sum is 8.5
        assert m["simulate.sample_count_s"] == pytest.approx(10 - 5)
        assert m["simulate.draw_us_per_block"] == pytest.approx(6.5 / 2 * 1e6)
        assert m["cli.self_s"] == pytest.approx(2.0)

    def test_check_cases_include_grid(self):
        spans = [
            span(1, None, "checks.run_all_checks", 0, 4),
            span(2, 1, "checks.check_classicality_dichotomy", 0, 3, n=50),
            span(3, 2, "checks.visibility_grid", 0, 1, n=7),
            span(4, 1, "checks.check_povm_family", 3, 4),
            span(5, 4, "checks.visibility_grid", 3, 3.5, n=7),
        ]
        m = layers.layer_metrics(spans)
        assert m["checks.classicality_dichotomy_cases"] == 57
        assert m["checks.povm_family_cases"] == 7
        assert m["checks.classicality_dichotomy_s"] == 3


class TestTracer:
    def _bindings(self):
        import xymeas.cli  # noqa: F401  (imports every module)

        return {
            (key, attr): value
            for key, module in sys.modules.items()
            if key == "xymeas" or key.startswith("xymeas.")
            for attr, value in vars(module).items()
            if callable(value)
        }

    def test_wrappers_are_restored(self):
        import xymeas.checks
        import xymeas.cli
        import xymeas.qubit
        import xymeas.simulate

        before = self._bindings()
        tracer = Tracer()
        tracer.install()
        try:
            assert xymeas.cli.run_pair_experiment is not before[("xymeas.cli", "run_pair_experiment")]
            assert xymeas.simulate.block_rng is not before[("xymeas.simulate", "block_rng")]
            assert xymeas.checks.check_povm_family is not before[("xymeas.checks", "check_povm_family")]
            assert xymeas.qubit.pauli is before[("xymeas.qubit", "pauli")]
        finally:
            tracer.restore()
        assert self._bindings() == before

    def test_pool_spans_belong_to_the_run(self):
        import xymeas.cli
        from xymeas.povm import VisibilityTriple

        tracer = Tracer()
        tracer.install()
        try:
            config = xymeas.cli.ExperimentConfig(VisibilityTriple(0.5, 0.5, 0.5), shots=3 * 65536, seed=9)
            xymeas.cli.run_pair_experiment(config, workers=2)
        finally:
            tracer.restore()
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s[2], []).append(s)
        (run_span,) = by_name["simulate.run_pair_experiment"]
        assert run_span[7] == 3 * 65536
        assert len(by_name["simulate.block_rng"]) == 3 and len(by_name["simulate.draw"]) == 3
        assert {s[1] for s in by_name["simulate.block_rng"] + by_name["simulate.draw"]} == {run_span[0]}
        assert all(s[1] == run_span[0] for s in by_name["povm.build_povm"])


def test_metric_names():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == layers.METRICS
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_pinned_sizes():
    assert workloads.grid_size(9) == 310
    assert workloads.verify_cases(9, 10_000) == 21_620
    sweep = workloads.build("sweep", 5, Path("w"))
    assert len(sweep.commands) == 200 and sweep.shots == 120 * 131_072
    assert workloads.build("pipeline", 5, Path("w")).shots == 3 * 4_000_000


def test_seeds_are_derived_and_reproducible():
    a = workloads.build("pipeline", 5, Path("w"))
    assert a.commands == workloads.build("pipeline", 5, Path("w")).commands
    assert a.commands != workloads.build("pipeline", 6, Path("w")).commands
    seeds = [int(argv[argv.index("--seed") + 1]) for argv in a.commands if "--seed" in argv]
    assert len(set(seeds)) == 3 and all(0 <= s < 2 ** 63 for s in seeds) and 5 not in seeds


def test_checks_reject_wrong_outputs(tmp_path):
    pipeline = workloads.build("pipeline", 5, tmp_path)
    report = Path(pipeline.commands[3][-1])
    report.write_text(
        "schema: xymeas-report/1\n[visibility_x]\nvalue 0.5773\nstderr 0.001\n"
        "[visibility_y]\nvalue 0.70\nstderr 0.001\n"
        "[csquared]\nvalue 0.3333\nstderr 0.001\nclassical true\n"
    )
    results = {name: passed for name, passed, _ in workloads.check_outputs(pipeline, [""] * 5)}
    assert results == {"vx": True, "vy": False, "csquared": False, "reconstruct": False}
    verify = workloads.build("verify", 5, tmp_path)
    assert not workloads.check_outputs(verify, ["PASS a\nPASS b\nPASS c\nFAIL d\n"])[0][1]
    assert workloads.check_outputs(verify, ["PASS a\nPASS b\nPASS c\nPASS d\n"])[0][1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_tiny(name):
    summary = run.run_benchmark(name, seed=3, seconds=0, trace=True, sizes=TINY)
    assert summary["failed"] == 0 and summary["attempted"] > len(workloads.build(name, 3, Path("w"), TINY).commands)
    assert set(summary["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in summary["end_to_end"].values())
    layer = summary["per_layer"]
    assert set(layer) == set(layers.METRICS)
    commands = summary["commands_per_run"]
    assert layer["cli.commands"] == commands
    assert 0 <= layer["trace.uncovered_s"] < 0.01 * commands + 0.05
    assert run.covered(layer)
    if name == "verify":
        assert sum(layer[f"checks.{c}_cases"] for c in layers.CHECKS) == workloads.verify_cases(3, 50)
        assert layer["simulate.blocks"] == 0 and layer["fileio.files_written"] == 0
    else:
        assert layer["simulate.shots"] == workloads.build(name, 3, Path("w"), TINY).shots
        assert layer["fileio.files_written"] == 2 * commands
    assert not (BENCH / ".work").exists()


@pytest.mark.parametrize("name", ["pipeline", "sweep"])
def test_golden_counts_at_default_seed(name):
    summary = run.run_benchmark(name, seed=workloads.DEFAULT_SEED, seconds=0, trace=False)
    golden = json.loads(run.GOLDEN.read_text())[name]
    assert len(golden) == len(workloads.build(name, 1, Path("w")).counts)
    assert summary["failed"] == 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
