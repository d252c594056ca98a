#!/usr/bin/env python3
"""Reconstruct the quasi-probability of a named state from measurement data.

Builds the exact outcome table of the chosen device for the chosen state,
writes it as a probability file, then runs ``xymeas reconstruct`` on it.
The real, positive outcome probabilities invert into a complex table: for
Z+ the four entries are (1 +- i)/4, the imaginary parts carrying the Z
information that the X/Y outcome labels cannot.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from xymeas import cli
from xymeas.fileio import fmt_float, named_state_bloch, write_probs_file
from xymeas.povm import OUTCOMES4, VisibilityTriple, build_povm, outcome_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", default="Z+", choices=("Z+", "Z-", "X+", "X-", "Y+", "Y-", "mixed"))
    parser.add_argument("--vx", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--vy", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--vz", type=float, default=1 / np.sqrt(3))
    parser.add_argument("--workdir", type=Path, default=Path("kd_demo"))
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    v = VisibilityTriple(args.vx, args.vy, args.vz)
    probs = outcome_table(build_povm(v), named_state_bloch(args.state))
    probs_path = args.workdir / f"{args.state.replace('+', 'plus').replace('-', 'minus')}_probs.txt"
    write_probs_file(probs_path, probs, state=args.state)

    print(f"exact outcome table for {args.state} under (vx, vy, vz) = "
          f"({v.vx:.6f}, {v.vy:.6f}, {v.vz:.6f}):")
    for (x, y), p in zip(OUTCOMES4, probs.tolist()):
        print(f"  P({x:+d}, {y:+d}) = {p:.6f}")
    print()

    out = args.workdir / "kd_report.txt"
    code = cli.main(
        [
            "reconstruct",
            "--input", str(probs_path),
            "--vx", fmt_float(v.vx), "--vy", fmt_float(v.vy), "--vz", fmt_float(v.vz),
            "--out", str(out),
        ]
    )
    if code == 0:
        print(f"\nfull report: {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
