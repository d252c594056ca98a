#!/usr/bin/env python3
"""Sweep vz at fixed vx = vy and tabulate the estimated error correlation.

Writes a tab-separated table of exact and Monte-Carlo values of c^2 and the
classicality statistic S. The classical boundary sits at vz = 0: every
nonzero vz pushes c^2 below zero, which no real non-negative error model
can reproduce. Each point drives ``xymeas simulate --mode pair`` and
``xymeas estimate --allow-partial`` in a temporary directory and reads the
Monte-Carlo columns from the report.
"""

import argparse
import math
import sys
import tempfile
from pathlib import Path

from run_error_correlation_experiment import xymeas
from xymeas.analysis import classicality_statistic
from xymeas.fileio import fmt_float, read_document
from xymeas.povm import VisibilityTriple, exact_pattern_probs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vxy", type=float, default=0.5, help="common value of vx and vy")
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--shots", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    args = parser.parse_args()
    if not 0.0 <= args.vxy <= math.sqrt(0.5):
        parser.error(f"--vxy must lie in [0, 1/sqrt(2)], got {args.vxy}")
    if args.steps < 2:
        parser.error(f"--steps must be at least 2, got {args.steps}")

    # clipped at 0, where vxy = 1/sqrt(2) rounds 2 * vxy^2 above 1
    vz_max = math.sqrt(max(0.0, 1.0 - 2.0 * args.vxy ** 2))
    header = [
        "vz", "csquared_exact", "csquared_mc", "csquared_stderr",
        "s_exact", "s_mc", "classical_verdict",
    ]
    print("\t".join(header), file=args.out)
    with tempfile.TemporaryDirectory() as work:
        pair, out = Path(work) / "pair", Path(work) / "estimate.report"
        for i in range(args.steps):
            vz = vz_max * i / (args.steps - 1)
            v = VisibilityTriple(args.vxy, args.vxy, vz)
            xymeas("simulate", "--mode", "pair", "--vx", v.vx, "--vy", v.vy, "--vz", v.vz,
                   "--shots", args.shots, "--seed", args.seed + i, "--out", pair)
            xymeas("estimate", pair, "--allow-partial", "--out", out)
            report = read_document(out)
            classical = report.section_value("csquared", "classical") == "true"
            row = [
                fmt_float(vz),
                fmt_float(-(vz ** 2)),
                report.section_value("csquared", "value"),
                report.section_value("csquared", "stderr"),
                fmt_float(classicality_statistic(exact_pattern_probs(v))),
                report.section_value("classicality", "statistic"),
                "classical" if classical else "non-classical",
            ]
            print("\t".join(row), file=args.out)


if __name__ == "__main__":
    main()
