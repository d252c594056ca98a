"""The benchmark's workloads: the CLI commands each one sends and the checks on their outputs.

Every workload is a fixed list of ``xymeas`` command lines built from the
workload seed. The program sees only the derived ``--seed`` values; the
workload seed itself never reaches it. Outputs are checked against the
exact predictions of the paper, with tolerances taken from the reported
standard errors or from the shot count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("pipeline", "sweep", "verify")

# Seed at which every counts file must match the hashes in golden_counts.json.
DEFAULT_SEED = 1

# A check passes within this many reported standard errors.
SIGMAS = 5.0
# reconstruct's max_abs deviation must stay below RECON_TOL_SQRT_SHOTS / sqrt(shots).
RECON_TOL_SQRT_SHOTS = 5.0

HEADLINE_V = 1.0 / math.sqrt(3.0)
SWEEP_VXY = 0.5
SWEEP_WERNER_P = 0.95


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; `PINNED` are the benchmark's, smaller ones serve the smoke test."""

    pipeline_shots: int = 4_000_000
    sweep_points: int = 40
    sweep_shots: int = 131_072
    verify_grid: int = 9
    verify_samples: int = 10_000


PINNED = Sizes()


@dataclass
class Workload:
    """Commands of one workload run plus what is needed to check them.

    ``commands`` run in order, each timed. ``gate`` commands run after the
    timed region; ``gate_pairs`` lists (re-simulated file, original file)
    pairs whose bytes must match. ``counts`` names every counts file, in the
    order the golden hashes are kept.
    """

    name: str
    seed: int
    sizes: Sizes
    commands: list[list[str]]
    counts: list[str] = field(default_factory=list)
    gate: list[list[str]] = field(default_factory=list)
    gate_pairs: list[tuple[str, str]] = field(default_factory=list)
    points: list[tuple[float, str]] = field(default_factory=list)  # sweep: (vz, report)

    @property
    def shots(self) -> int:
        """Shots simulated by the timed commands."""
        return sum(int(argv[argv.index("--shots") + 1]) for argv in self.commands if argv[0] == "simulate")

    @property
    def cases(self) -> int:
        """Cases `verify` checks, summed over its four checks."""
        return verify_cases(self.sizes.verify_grid, self.sizes.verify_samples) if self.name == "verify" else 0


def derive_seed(workload: str, seed: int, index: int) -> int:
    """The program's ``--seed`` for command ``index`` of a workload run (63 bits)."""
    digest = hashlib.sha256(f"xymeas-bench/{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def fmt(x: float) -> str:
    return format(x, ".17g")


def grid_size(n: int) -> int:
    """Number of visibility triples on the n x n x n grid that `verify` sweeps."""
    count = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vx, vy, vz = i / (n - 1), j / (n - 1), -1.0 + 2.0 * k / (n - 1)
                count += vx * vx + vy * vy + vz * vz <= 1.0 + 1e-12
    return count


def verify_cases(grid: int, samples: int) -> int:
    """operator identities + povm family + Fourier identity + classicality dichotomy."""
    g = grid_size(grid)
    return min(samples, 1000) + g + samples + (g + samples)


def _simulate(mode_args, v, shots, seed, workers, out) -> list[str]:
    return [
        "simulate", *mode_args,
        "--vx", fmt(v[0]), "--vy", fmt(v[1]), "--vz", fmt(v[2]),
        "--shots", str(shots), "--seed", str(seed), "--workers", str(workers), "--out", out,
    ]


def build(name: str, seed: int, work: Path, sizes: Sizes = PINNED) -> Workload:
    """Command lines of one run of workload ``name``, writing under ``work``."""
    if name == "pipeline":
        return _pipeline(seed, work, sizes)
    if name == "sweep":
        return _sweep(seed, work, sizes)
    if name == "verify":
        argv = [
            "verify", "--grid", str(sizes.verify_grid), "--samples", str(sizes.verify_samples),
            "--seed", str(derive_seed(name, seed, 0)),
        ]
        return Workload(name, seed, sizes, [argv])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _pipeline(seed: int, work: Path, sizes: Sizes) -> Workload:
    v = (HEADLINE_V,) * 3
    n = sizes.pipeline_shots
    x, y, pair = (str(work / f) for f in ("x.counts", "y.counts", "pair.counts"))
    report, recon = str(work / "estimate.report"), str(work / "reconstruct.report")
    commands = [
        _simulate(["--mode", "eigenstate", "--axis", "X", "--value", "+1", "--randomize-flips"],
                  v, n, derive_seed("pipeline", seed, 0), 1, x),
        _simulate(["--mode", "eigenstate", "--axis", "Y", "--value", "+1", "--randomize-flips"],
                  v, n, derive_seed("pipeline", seed, 1), 1, y),
        _simulate(["--mode", "pair"], v, n, derive_seed("pipeline", seed, 2), 1, pair),
        ["estimate", x, y, pair, "--out", report],
        ["reconstruct", "--input", x, "--from-report", report, "--out", recon],
    ]
    return Workload("pipeline", seed, sizes, commands, counts=[x, y, pair])


def _sweep(seed: int, work: Path, sizes: Sizes) -> Workload:
    commands, counts, points = [], [], []
    runs = []  # per point: its three simulate command lines
    for k in range(1, sizes.sweep_points + 1):
        vz = k * math.sqrt(0.5) / sizes.sweep_points
        v = (SWEEP_VXY, SWEEP_VXY, vz)
        pair, x, y = (str(work / f"p{k:02d}-{role}.counts") for role in ("pair", "x", "y"))
        report, recon = str(work / f"p{k:02d}-estimate.report"), str(work / f"p{k:02d}-reconstruct.report")
        base = 3 * (k - 1)
        sims = [
            _simulate(["--mode", "pair", "--werner-p", fmt(SWEEP_WERNER_P)],
                      v, sizes.sweep_shots, derive_seed("sweep", seed, base), 2, pair),
            _simulate(["--mode", "eigenstate", "--axis", "X", "--value=-1"],
                      v, sizes.sweep_shots, derive_seed("sweep", seed, base + 1), 2, x),
            _simulate(["--mode", "eigenstate", "--axis", "Y", "--value", "+1"],
                      v, sizes.sweep_shots, derive_seed("sweep", seed, base + 2), 2, y),
        ]
        runs.append(sims)
        commands += sims
        commands.append(["estimate", pair, x, y, "--correct-source-noise", "--out", report])
        commands.append(["reconstruct", "--input", x, "--vx", fmt(v[0]), "--vy", fmt(v[1]),
                         "--vz", fmt(vz), "--out", recon])
        counts += [pair, x, y]
        points.append((vz, report))

    # One point, chosen by the seed, is simulated again serially outside the timing.
    gate, pairs = [], []
    for argv in runs[derive_seed("sweep-gate", seed, 0) % len(runs)]:
        original = argv[-1]
        again = str(work / "gate" / Path(original).name)
        serial = list(argv)
        serial[serial.index("--workers") + 1] = "1"
        serial[-1] = again
        gate.append(serial)
        pairs.append((again, original))
    return Workload("sweep", seed, sizes, commands, counts=counts, gate=gate, gate_pairs=pairs, points=points)


# -- checks -------------------------------------------------------------------


def read_sections(path: str | Path) -> dict[str, dict[str, list[str]]]:
    """Sections of an artifact file as ``{section: {first token: rest}}``.

    Deliberately independent of ``xymeas.fileio``, so a reader bug in the
    program cannot hide a wrong output.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    current = None
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None and line:
            tokens = line.split()
            current[tokens[0]] = tokens[1:]
    return sections


def _within(value: float, expected: float, stderr: float) -> bool:
    return abs(value - expected) <= SIGMAS * stderr


def check_outputs(workload: Workload, stdouts: list[str]) -> list[tuple[str, bool, str]]:
    """Output checks of one run: ``(name, passed, detail)`` each.

    A missing or malformed output fails its check instead of raising.
    """
    checks: list[tuple[str, bool, str]] = []

    def check(name, fn):
        try:
            passed, detail = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            passed, detail = False, f"unreadable output: {exc!r}"
        checks.append((name, passed, detail))

    if workload.name == "pipeline":
        report = workload.commands[3][-1]
        recon = workload.commands[4][-1]
        shots = workload.sizes.pipeline_shots

        def visibility(section):
            def fn():
                s = read_sections(report)[section]
                value, stderr = float(s["value"][0]), float(s["stderr"][0])
                return _within(value, HEADLINE_V, stderr), f"{value} +- {stderr}"
            return fn

        def csquared():
            s = read_sections(report)["csquared"]
            value, stderr, classical = float(s["value"][0]), float(s["stderr"][0]), s["classical"][0]
            ok = _within(value, -HEADLINE_V ** 2, stderr) and classical == "false"
            return ok, f"{value} +- {stderr}, classical {classical}"

        def reconstruct():
            worst = float(read_sections(recon)["kd_reference_deviation"]["max_abs"][0])
            tol = RECON_TOL_SQRT_SHOTS / math.sqrt(shots)
            return worst < tol, f"max_abs {worst:.3e} < {tol:.3e}"

        check("vx", visibility("visibility_x"))
        check("vy", visibility("visibility_y"))
        check("csquared", csquared)
        check("reconstruct", reconstruct)
    elif workload.name == "sweep":
        for vz, report in workload.points:
            def point(vz=vz, report=report):
                s = read_sections(report)["csquared"]
                value, stderr = float(s["value"][0]), float(s["stderr"][0])
                return _within(value, -vz * vz, stderr), f"{value} +- {stderr} vs {-vz * vz}"
            check(f"csquared@vz={vz:.4f}", point)
    else:
        lines = stdouts[0].splitlines()
        passes = [line for line in lines if line.startswith("PASS ")]
        fails = [line for line in lines if line.startswith("FAIL ")]
        checks.append(("verify", len(passes) == 4 and not fails, f"{len(passes)} PASS, {len(fails)} FAIL lines"))
    return checks


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
