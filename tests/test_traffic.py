"""Every function in ``src/xymeas`` is entered by the commands the project runs.

The command list is every `tests/test_golden.py` command, a small
``verify``, a two-worker ``--randomize-flips`` simulate and the three
experiment scripts, each at small sizes. It runs in one fresh interpreter
under `sys.settrace` and `threading.settrace`, set before the package is
imported, which record each function entered: at import, in the main thread
and in the block threads. A function that none of them enters serves no
command and belongs in ``tests/oracles.py`` or nowhere; only the error
paths in `ALLOWED` may stay unentered.

List the functions the command list never enters, allowed ones marked:

    PYTHONPATH=src python tests/test_traffic.py
"""

import contextlib
import io
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS_DIR = ROOT / "scripts"

# raised only by a bad flag, a bad file line or a singular inversion
ALLOWED = {
    "cli._Parser.error",
    "fileio.Document._where",
}

# after the test_golden commands
EXTRA_COMMANDS = [
    ["verify", "--grid", "3", "--samples", "100"],
    ["simulate", "--mode", "eigenstate", "--axis", "Y", "--value", "+1", "--vx", "0.5", "--vy", "0.6",
     "--vz", "0.4", "--shots", "300000", "--seed", "5", "--randomize-flips", "--workers", "2",
     "--out", "flips.counts"],
]

SCRIPTS = [
    ("run_error_correlation_experiment.py", ["--shots", "2000"]),
    ("sweep_correlation_vs_vz.py", ["--steps", "2", "--shots", "2000"]),
    ("kd_reconstruction_demo.py", ["--workdir", "kd"]),
]


def _name(code: types.CodeType) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def defined_functions(package: Path) -> set[str]:
    """``module.qualname`` of every function and class body in ``package``.

    A comprehension runs inside the function that holds it, so it is not counted.
    """
    names = set()
    for path in package.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if not code.co_name.startswith("<") or code.co_name == "<lambda>":
                names.add(_name(code))
    return names


def run_commands() -> None:
    """Run the command list in the working directory; a command that fails raises."""
    from test_golden import COMMANDS, PROBS
    from xymeas import cli

    shutil.copy(ROOT / "tests" / "golden" / PROBS, PROBS)
    for argv in [*(argv for _, argv in COMMANDS), *EXTRA_COMMANDS]:
        if cli.main(argv) != cli.EXIT_OK:
            raise RuntimeError(f"{' '.join(argv)} failed")
    # the sweep imports the experiment script from its own directory
    sys.path.insert(0, str(SCRIPTS_DIR))
    for script, args in SCRIPTS:
        sys.argv = [script, *args]
        try:
            runpy.run_path(str(SCRIPTS_DIR / script), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise RuntimeError(f"{script} exited {exc.code}") from None


def unentered_functions() -> list[str]:
    """The package functions the command list never enters, traced from before the import."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.settrace(tracer)
    threading.settrace(tracer)
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(work)
        run_commands()
        os.chdir(ROOT)
    sys.settrace(None)
    threading.settrace(None)
    import xymeas

    package = Path(xymeas.__file__).parent
    prefix = str(package) + os.sep
    names = {f"{Path(f).stem}.{q}" for f, q in entered if f.startswith(prefix)}
    return sorted(defined_functions(package) - names)


def test_only_allowed_error_paths_are_unentered():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    unentered = result.stdout.splitlines()
    assert [name for name in unentered if not name.endswith("(allowed)")] == []
    # every allowance names a function that still exists and is still unentered
    assert unentered == [f"{name}  (allowed)" for name in sorted(ALLOWED)]


if __name__ == "__main__":
    for name in unentered_functions():
        print(f"{name}{'  (allowed)' if name in ALLOWED else ''}")
