"""Smoke tests of the experiment scripts under ``scripts/``, each run as a subprocess at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd, returncode=0):
    """The script's stdout, or its stderr when it is expected to fail."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
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
