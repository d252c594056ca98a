"""Tests of the experiment scripts under ``scripts/``, each run as a subprocess at small sizes.

The stdout of each script at the sizes in `GOLDEN_STDOUT` is pinned byte
for byte in ``tests/golden/``. Re-record only when a change is meant to
alter these bytes, and say so with the change; the recorder names each
fixture whose bytes changed:

    PYTHONPATH=src python tests/test_scripts.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (fixture, script, arguments); each runs in an empty working directory, so
# the demo writes under its default relative --workdir and prints that path
GOLDEN_STDOUT = [
    ("error_correlation.stdout", "run_error_correlation_experiment.py", ("--shots", 20000)),
    ("sweep.stdout", "sweep_correlation_vs_vz.py", ("--steps", 3, "--shots", 20000)),
    ("kd_demo.stdout", "kd_reconstruction_demo.py", ()),
]


def run_script(name, *args, cwd, returncode=0, text=True):
    """The script's stdout, or its stderr when it is expected to fail."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=text, timeout=120,
    )
    assert result.returncode == returncode, result.stderr
    return result.stdout if returncode == 0 else result.stderr


def test_error_correlation_experiment(tmp_path):
    out = run_script("run_error_correlation_experiment.py", "--shots", 20000, cwd=tmp_path)
    verdict = out.splitlines()[-1]
    assert verdict.startswith("verdict: non-classical error correlation, c^2 < 0 at ")
    assert "c^2 (pair run)" in out
    # the CLI runs in a temporary directory and leaves nothing behind
    assert list(tmp_path.iterdir()) == []


def test_error_correlation_experiment_at_vz_one(tmp_path):
    # every pair shot reads c^2 = -1: the empty side of the row gets the rule-of-three 3/N
    out = run_script("run_error_correlation_experiment.py", "--vx", 0, "--vy", 0, "--vz", 1,
                     "--shots", 2000, cwd=tmp_path)
    assert out.splitlines()[-1] == (
        "verdict: non-classical error correlation, c^2 < 0 at 333.3 sigma (|vz| estimate 1.000000)"
    )


def test_sweep_correlation_vs_vz(tmp_path):
    out = run_script("sweep_correlation_vs_vz.py", "--steps", 3, "--shots", 20000, cwd=tmp_path)
    header, *rows = out.splitlines()
    assert header.split("\t")[0] == "vz"
    assert len(rows) == 3
    assert all(len(row.split("\t")) == len(header.split("\t")) for row in rows)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--vxy", 0.8), "--vxy must lie in [0, 1/sqrt(2)], got 0.8"),
        (("--vxy", -0.1), "--vxy must lie in [0, 1/sqrt(2)], got -0.1"),
        (("--steps", 1), "--steps must be at least 2, got 1"),
    ],
)
def test_sweep_rejects_bad_flags_as_usage_errors(tmp_path, args, message):
    err = run_script("sweep_correlation_vs_vz.py", *args, cwd=tmp_path, returncode=2)
    assert message in err
    assert "Traceback" not in err


def test_kd_reconstruction_demo(tmp_path):
    out = run_script("kd_reconstruction_demo.py", "--workdir", tmp_path / "kd", cwd=tmp_path)
    assert "kd(+1, +1) = +0.250000 +0.250000i" in out.splitlines()


@pytest.mark.parametrize("fixture, name, args", GOLDEN_STDOUT)
def test_stdout_bytes(tmp_path, fixture, name, args):
    out = run_script(name, *args, cwd=tmp_path, text=False)
    assert out == (GOLDEN / fixture).read_bytes()


if __name__ == "__main__":
    from test_golden import record

    for fixture, name, args in GOLDEN_STDOUT:
        with tempfile.TemporaryDirectory() as work:
            record(GOLDEN / fixture, run_script(name, *args, cwd=work, text=False))
    print(f"recorded {len(GOLDEN_STDOUT)} fixtures in {GOLDEN}", file=sys.stderr)
