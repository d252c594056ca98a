#!/usr/bin/env python3
"""Sweep vz at fixed vx = vy and tabulate the estimated error correlation.

Writes a tab-separated table of exact and Monte-Carlo values of c^2 and the
classicality statistic S. The classical boundary sits at vz = 0: every
nonzero vz pushes c^2 below zero, which no real non-negative error model
can reproduce.
"""

import argparse
import sys

from xymeas.analysis import (
    classicality_statistic,
    collapse_pair_counts,
    csquared_from_patterns,
    is_classical,
)
from xymeas.fileio import fmt_float
from xymeas.povm import VisibilityTriple, exact_pattern_probs
from xymeas.simulate import ExperimentConfig, run_pair_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vxy", type=float, default=0.5, help="common value of vx and vy")
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--shots", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    args = parser.parse_args()

    vz_max = (1.0 - 2.0 * args.vxy ** 2) ** 0.5
    header = [
        "vz", "csquared_exact", "csquared_mc", "csquared_stderr",
        "s_exact", "s_mc", "classical_verdict",
    ]
    print("\t".join(header), file=args.out)
    for i in range(args.steps):
        vz = vz_max * i / (args.steps - 1)
        v = VisibilityTriple(args.vxy, args.vxy, vz)
        exact = exact_pattern_probs(v)
        counts = run_pair_experiment(
            ExperimentConfig(visibilities=v, shots=args.shots, seed=args.seed + i)
        )
        stats = collapse_pair_counts(counts)
        c2 = csquared_from_patterns(stats)
        row = [
            fmt_float(vz),
            fmt_float(-(vz ** 2)),
            fmt_float(c2.value),
            fmt_float(c2.stderr),
            fmt_float(classicality_statistic(exact)),
            fmt_float(classicality_statistic(stats)),
            "classical" if is_classical(c2) else "non-classical",
        ]
        print("\t".join(row), file=args.out)


if __name__ == "__main__":
    main()
