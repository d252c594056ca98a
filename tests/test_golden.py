"""Golden bytes: fixed CLI runs must reproduce the recorded artifacts exactly.

The fixtures under ``tests/golden/`` pin the bytes of a measurement dump,
counts files (eigenstate with and without flip randomization, a Werner
pair), estimate reports (with and without source-noise correction) and the
summary lines each estimate prints to stdout, and reconstruction reports
(from a counts file via ``--from-report`` and from a probability file),
and the stdout of ``verify`` at its default sizes, whose printed worst
deviations move with any change to the order of a floating-point sum.
Manifests carry a timestamp and are left out.

Re-record only when a change is meant to alter these bytes, and say so
with the change; the recorder names each fixture whose bytes changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

from xymeas import cli
from xymeas.fileio import write_probs_file
from xymeas.povm import VisibilityTriple, build_povm, outcome_table
from xymeas.qubit import bloch_vector

GOLDEN = Path(__file__).resolve().parent / "golden"

# vx != vy, so a swapped sign row or marginal shows in the bytes
V = ("0.5", "0.6", "0.4")
VFLAGS = ["--vx", V[0], "--vy", V[1], "--vz", V[2]]
SHOTS = "100000"

# Input written by the library, not the CLI: an exact Z+ outcome table.
PROBS = "zplus.probs"

# (artifact, command line); every command runs in one directory, in order.
COMMANDS = [
    ("povm.txt", ["build-povm", *VFLAGS, "--out", "povm.txt"]),
    ("x.counts", ["simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1", *VFLAGS,
                  "--shots", SHOTS, "--seed", "1", "--randomize-flips", "--out", "x.counts"]),
    ("y.counts", ["simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "-1", *VFLAGS,
                  "--shots", SHOTS, "--seed", "2", "--out", "y.counts"]),
    ("pair.counts", ["simulate", "--mode", "pair", *VFLAGS, "--shots", SHOTS, "--seed", "3",
                     "--werner-p", "0.95", "--out", "pair.counts"]),
    ("estimate.report", ["estimate", "x.counts", "y.counts", "pair.counts", "--out", "estimate.report"]),
    ("corrected.report", ["estimate", "x.counts", "y.counts", "pair.counts", "--correct-source-noise",
                          "--out", "corrected.report"]),
    ("from-report.kd", ["reconstruct", "--input", "x.counts", "--from-report", "estimate.report",
                        "--out", "from-report.kd"]),
    ("probs.kd", ["reconstruct", "--input", PROBS, *VFLAGS, "--out", "probs.kd"]),
]


# artifact -> fixture holding the stdout of the command that writes it
STDOUT = {"estimate.report": "estimate.stdout", "corrected.report": "corrected.stdout"}

# a command that writes no artifact, and the fixture holding its stdout
VERIFY = ["verify", "--grid", "9", "--samples", "10000"]
VERIFY_STDOUT = "verify.stdout"


def write_probs(path):
    v = VisibilityTriple(*map(float, V))
    write_probs_file(path, outcome_table(build_povm(v), bloch_vector("Z", +1)), state="Z+")


def run_all(directory: Path) -> dict[str, str]:
    """Run every command of `COMMANDS` in ``directory`` (the working directory).

    Returns the stdout of the commands named in `STDOUT`, keyed by fixture.
    """
    stdout = {}
    for artifact, argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        assert (directory / artifact).is_file()
        if artifact in STDOUT:
            stdout[STDOUT[artifact]] = captured.getvalue()
    return stdout


def run_verify() -> str:
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = cli.main(VERIFY)
    if code != 0:
        raise RuntimeError(f"{' '.join(VERIFY)} exited {code}")
    return captured.getvalue()


def test_verify_stdout_bytes():
    assert run_verify().encode() == (GOLDEN / VERIFY_STDOUT).read_bytes()


def test_probs_input_bytes(tmp_path):
    write_probs(tmp_path / PROBS)
    assert (tmp_path / PROBS).read_bytes() == (GOLDEN / PROBS).read_bytes()


def test_cli_artifacts_are_byte_identical(tmp_path, monkeypatch):
    shutil.copy(GOLDEN / PROBS, tmp_path / PROBS)
    monkeypatch.chdir(tmp_path)
    stdout = run_all(tmp_path)
    for artifact, _argv in COMMANDS:
        assert (tmp_path / artifact).read_bytes() == (GOLDEN / artifact).read_bytes(), artifact
    for fixture, text in stdout.items():
        assert text.encode() == (GOLDEN / fixture).read_bytes(), fixture


def record(path: Path, data: bytes) -> None:
    """Write the fixture ``path``, naming it on stderr when its bytes change."""
    if not path.is_file() or path.read_bytes() != data:
        print(f"changed {path.name}", file=sys.stderr)
    path.write_bytes(data)


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_probs(Path(PROBS))
        record(GOLDEN / PROBS, Path(PROBS).read_bytes())
        stdout = run_all(Path(work))
        for artifact, _argv in COMMANDS:
            record(GOLDEN / artifact, Path(artifact).read_bytes())
    for fixture, text in stdout.items():
        record(GOLDEN / fixture, text.encode())
    record(GOLDEN / VERIFY_STDOUT, run_verify().encode())
    print(f"recorded {len(COMMANDS) + len(STDOUT) + 2} fixtures in {GOLDEN}", file=sys.stderr)
