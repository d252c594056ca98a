#!/usr/bin/env python3
"""End-to-end error-correlation experiment at the symmetric visibility point.

Drives ``xymeas simulate`` (eigenstate runs fix vx and vy, a singlet-pair run
exposes the error correlation) and ``xymeas estimate`` in a temporary directory
and prints the report next to the exact predictions. The headline number is
c^2: classically never negative, but the device with vz != 0 drives it to -vz^2.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from xymeas import cli
from xymeas.fileio import read_document
from xymeas.povm import PATTERNS, VisibilityTriple, exact_pattern_probs


def xymeas(*argv) -> None:
    """Run one CLI command quietly; on failure exit with its diagnostics."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        if cli.main([str(a) for a in argv]) != cli.EXIT_OK:
            sys.exit(err.getvalue().rstrip())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vx", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--vy", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--vz", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--shots", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--werner-p", type=float, default=1.0)
    args = parser.parse_args()

    run = ["--vx", args.vx, "--vy", args.vy, "--vz", args.vz, "--shots", args.shots]
    with tempfile.TemporaryDirectory() as work:
        x, y, pair, out = (Path(work) / name for name in ("x", "y", "pair", "estimate.report"))
        for axis, seed, path in (("X", args.seed, x), ("Y", args.seed + 1, y)):
            xymeas("simulate", "--mode", "eigenstate", "--axis", axis, "--value", "+1", *run,
                   "--seed", seed, "--randomize-flips", "--out", path)
        xymeas("simulate", "--mode", "pair", *run, "--seed", args.seed + 2,
               "--werner-p", args.werner_p, "--out", pair)
        xymeas("estimate", x, y, pair, "--out", out)
        report = read_document(out)
    v = VisibilityTriple(args.vx, args.vy, args.vz)

    def number(section: str, key: str = "value") -> float:
        return report.section_value(section, key, float)

    p = args.werner_p
    print(f"device visibilities: vx={v.vx:.6f} vy={v.vy:.6f} vz={v.vz:.6f}")
    print(f"shots per run: {args.shots}, source werner_p: {args.werner_p}")
    print()
    print(f"{'quantity':<22}{'estimate':>14}{'stderr':>12}{'exact':>14}")
    rows = [
        ("vx (eigenstate run)", "visibility_x", v.vx),
        ("vy (eigenstate run)", "visibility_y", v.vy),
        ("vx^2 (pair run)", "vx_squared_pair", p * v.vx ** 2),
        ("vy^2 (pair run)", "vy_squared_pair", p * v.vy ** 2),
        ("c^2 (pair run)", "csquared", 0.0 - p * v.vz ** 2),  # no -0.0 at vz = 0
    ]
    rows = [(name, number(s), number(s, "stderr"), reference) for name, s, reference in rows]
    rows.append(("S statistic", number("classicality", "statistic"), number("classicality", "stderr"),
                 p * v.vz ** 2 / 4))
    for name, value, stderr, reference in rows:
        print(f"{name:<22}{value:>14.6f}{stderr:>12.2g}{reference:>14.6f}")
    print()
    # clipped at 0: on the family's boundary rounding leaves e.g. -2e-17, printed -0.000000
    exact = exact_pattern_probs(v).tolist()
    for (_, _, e, stderr), r, e_exact in zip(report.section("patterns"), PATTERNS, exact):
        print(f"pattern e{r}: estimate {float(e):.6f} +- {float(stderr):.2g}, "
              f"exact {max(p * e_exact + (1 - p) / 16, 0.0):.6f}")
    print()
    if report.section_value("csquared", "classical") == "true":
        print("verdict: consistent with a classical error model (c^2 >= 0 within 3 sigma)")
    else:
        sigmas = abs(number("csquared")) / number("csquared", "stderr")
        print(f"verdict: non-classical error correlation, c^2 < 0 at {sigmas:.1f} sigma "
              f"(|vz| estimate {number('csquared', 'vz_magnitude'):.6f})")


if __name__ == "__main__":
    main()
