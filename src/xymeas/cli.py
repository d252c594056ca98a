"""Command-line front end.

Subcommands: ``build-povm``, ``simulate``, ``estimate``, ``reconstruct``,
``verify``. Exit codes: 0 success, 1 usage error (bad flags, malformed or
missing inputs), 2 domain error (positivity violation, singular inversion),
3 verification failure. Progress and diagnostics go to stderr; result
summaries go to stdout; artifacts are written as files, each referencing a
manifest written next to it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    MIN_WERNER_P,
    Estimate,
    estimate_visibility,
    is_classical,
    pattern_cells,
    pattern_estimates,
)
from .checks import run_all_checks
from .fileio import (
    ELEMENT_KEYS,
    SCHEMA_COUNTS,
    SCHEMA_POVM,
    SCHEMA_PROBS,
    SCHEMA_REPORT,
    CountsArtifact,
    fmt_bool,
    fmt_float,
    fmt_sign,
    keyed_rows,
    named_state_bloch,
    one_of,
    parse_sign,
    read_counts_document,
    read_document,
    read_probs_document,
    read_report_visibilities,
    write_artifact,
)
from .kirkwood import SingularInversionError, kd_from_bloch, reconstruct_kd
from .povm import OUTCOMES4, OUTCOMES16, PATTERNS, PositivityError, VisibilityTriple, build_povm
from .simulate import (
    BLOCK_SHOTS,
    RNG_ID,
    ExperimentConfig,
    PairCounts16,
    run_eigenstate_experiment,
    run_pair_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to the contract
        raise UsageError(message)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it.

    Nothing builds it at import. Every later `main` in the process reuses
    it: ``parse_args`` returns a new namespace and leaves the parser as it was.
    """
    parser = _Parser(prog="xymeas", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xymeas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-povm", help="construct a joint measurement and dump its elements")
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vy", type=float, required=True)
    p.add_argument("--vz", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("simulate", help="run a seeded eigenstate or pair experiment")
    p.add_argument("--mode", choices=("eigenstate", "pair"), required=True)
    p.add_argument("--axis", choices=("X", "Y"), help="eigenstate mode only")
    p.add_argument("--value", type=parse_sign, help="eigenstate mode only: +1 or -1")
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vy", type=float, required=True)
    p.add_argument("--vz", type=float, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--randomize-flips", action="store_true", help="eigenstate mode only")
    p.add_argument("--werner-p", type=float, help="pair mode only; default 1 (perfect singlet)")
    p.add_argument("--workers", type=int, default=1, help="parallel sampling threads")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("estimate", help="estimate visibilities and the error correlation")
    p.add_argument("counts", nargs="+", type=Path, help="counts files from simulate")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument(
        "--allow-partial",
        action="store_true",
        help="report whatever the provided files support instead of requiring all three runs",
    )
    p.add_argument(
        "--correct-source-noise",
        action="store_true",
        help="divide pattern contrasts by the recorded werner_p (isotropic-noise model)",
    )

    p = sub.add_parser("reconstruct", help="invert an outcome table into a quasi-probability")
    p.add_argument("--input", type=Path, required=True, help="eigenstate counts or probs file")
    p.add_argument("--vx", type=float)
    p.add_argument("--vy", type=float)
    p.add_argument("--vz", type=float)
    p.add_argument("--from-report", type=Path, help="take vx, vy, |vz| from an estimate report")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("verify", help="run the self-verification sweeps")
    p.add_argument("--grid", type=int, default=9, help="visibility grid density per axis")
    p.add_argument("--samples", type=int, default=10_000, help="random models per sweep (default 10^4)")
    p.add_argument("--seed", type=int, default=20240901)

    return parser


def cmd_build_povm(args) -> int:
    v = VisibilityTriple(args.vx, args.vy, args.vz)
    entries = build_povm(v).ravel().tolist()
    real, imag = [fmt_float(e.real) for e in entries], [fmt_float(e.imag) for e in entries]
    sections = {"elements": keyed_rows(ELEMENT_KEYS, real, imag)}
    parameters = {"vx": fmt_float(v.vx), "vy": fmt_float(v.vy), "vz": fmt_float(v.vz)}
    manifest = write_artifact(args.out, SCHEMA_POVM, "build-povm", parameters, sections, parameters)
    _diag(f"wrote {args.out} and {manifest}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.mode == "eigenstate":
        if args.axis is None or args.value is None:
            raise UsageError("eigenstate mode requires --axis and --value")
        if args.werner_p is not None:
            raise UsageError("--werner-p applies to pair mode only")
    else:
        if args.axis is not None or args.value is not None:
            raise UsageError("--axis/--value apply to eigenstate mode only")
        if args.randomize_flips:
            raise UsageError("--randomize-flips applies to eigenstate mode only")
        if args.werner_p is not None and not 0.0 <= args.werner_p <= 1.0:
            raise UsageError(f"--werner-p must lie in [0, 1], got {args.werner_p}")
    if args.shots < 1:
        raise UsageError(f"--shots must be at least 1, got {args.shots}")
    if not 0 <= args.seed < 2 ** 64:
        raise UsageError(f"--seed must lie in [0, 2^64), got {args.seed}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")

    config = ExperimentConfig(
        visibilities=VisibilityTriple(args.vx, args.vy, args.vz), shots=args.shots, seed=args.seed
    )
    # the counts header and the manifest's [parameters], in one order
    parameters = {"mode": args.mode}
    if args.mode == "eigenstate":
        parameters.update(axis=args.axis, value=fmt_sign(args.value))
    v = config.visibilities
    parameters.update(
        vx=fmt_float(v.vx), vy=fmt_float(v.vy), vz=fmt_float(v.vz), shots=str(config.shots),
        seed=str(config.seed), randomize_flips=fmt_bool(args.randomize_flips),
    )
    if args.mode == "eigenstate":
        counts = run_eigenstate_experiment(
            config, args.axis, args.value, randomize_flips=args.randomize_flips,
            workers=args.workers,
        )
    else:
        werner_p = args.werner_p if args.werner_p is not None else 1.0
        parameters["werner_p"] = fmt_float(werner_p)
        counts = run_pair_experiment(config, werner_p=werner_p, workers=args.workers)
    keys = OUTCOMES4 if args.mode == "eigenstate" else OUTCOMES16
    sections = {"counts": keyed_rows(keys, map(str, counts.counts.tolist()))}
    run = {"rng": RNG_ID, "block_shots": str(BLOCK_SHOTS), "workers": str(args.workers)}
    manifest = write_artifact(args.out, SCHEMA_COUNTS, "simulate", parameters, sections, parameters, run)
    _diag(f"simulated {config.shots} shots; wrote {args.out} and {manifest}")
    return EXIT_OK


def _classify_counts(paths) -> dict[str, CountsArtifact]:
    roles: dict[str, CountsArtifact] = {}
    for path in paths:
        if not Path(path).exists():
            raise UsageError(f"counts file not found: {path}")
        artifact = read_counts_document(read_document(path))
        if isinstance(artifact.counts, PairCounts16):
            role = "pair"
        else:
            role = f"eigenstate-{artifact.counts.input_axis}"
        if role in roles:
            raise UsageError(f"duplicate {role} counts file: {path}")
        roles[role] = artifact
    return roles


def cmd_estimate(args) -> int:
    roles = _classify_counts(args.counts)
    required = ("eigenstate-X", "eigenstate-Y", "pair")
    missing = [r for r in required if r not in roles]
    if missing and not args.allow_partial:
        raise UsageError(
            "missing measurements: " + ", ".join(missing) + " (use --allow-partial to proceed)"
        )
    if args.correct_source_noise and "pair" not in roles:
        raise UsageError("--correct-source-noise applies to a pair counts file only")

    sections = {"inputs": [(role, str(artifact.path)) for role, artifact in sorted(roles.items())]}
    summary = []

    def section(name: str, est: Estimate, *extra: tuple[str, str]) -> str:
        """Write ``[name]`` as value, stderr and ``extra`` rows; return ``"v +- s"`` for stdout."""
        sections[name] = [("value", fmt_float(est.value)), ("stderr", fmt_float(est.stderr)), *extra]
        return f"{est.value:.6f} +- {est.stderr:.2g}"

    for axis in ("x", "y"):
        role = f"eigenstate-{axis.upper()}"
        if role in roles:
            est = estimate_visibility(roles[role].counts)
            figure = section(f"visibility_{axis}", est, ("source", "eigenstate-run"))
            summary.append(f"v{axis} = {figure}")

    if "pair" in roles:
        pair = roles["pair"]
        werner_p, werner_lineno = pair.werner_p or (None, None)
        if args.correct_source_noise:
            if werner_p is None:
                raise UsageError(f"{pair.path}: pair counts file does not record werner_p")
            if werner_p < MIN_WERNER_P:
                where = f"{pair.path}:{werner_lineno}"
                raise UsageError(
                    f"{where}: werner_p {werner_p:g} leaves no singlet signal to correct "
                    f"(below {MIN_WERNER_P:g})"
                )
        p = werner_p if args.correct_source_noise else 1.0
        sections["pair_run"] = [
            ("total_shots", str(pair.counts.total)),
            ("werner_p", fmt_float(werner_p) if werner_p is not None else "unknown"),
            ("source_noise_corrected", fmt_bool(args.correct_source_noise)),
        ]
        sections["patterns"] = [
            (str(rx), str(ry), fmt_float(e.value), fmt_float(e.stderr))
            for (rx, ry), e in zip(PATTERNS, pattern_cells(pair.counts, p))
        ]
        vx2, vy2, c2 = pattern_estimates(pair.counts, p)
        section("vx_squared_pair", vx2)
        section("vy_squared_pair", vy2)
        classical = is_classical(c2)
        vz = math.sqrt(max(0.0, -c2.value))
        extra = ("vz_magnitude", fmt_float(vz)), ("classical", fmt_bool(classical))
        figure = section("csquared", c2, *extra)
        # S = -c^2 / 4, one number with c^2 and its stderr; 0.0 - keeps S = 0 unsigned
        statistic = 0.0 - c2.value / 4.0
        s_stderr = fmt_float(c2.stderr / 4.0)
        sections["classicality"] = [("statistic", fmt_float(statistic)), ("stderr", s_stderr)]
        verdict = "consistent with classical errors" if classical else "non-classical"
        summary.append(f"c^2 = {figure} ({verdict})")
        summary.append(f"|vz| = {vz:.6f}, S = {statistic:.6f}")

    configured = {a.visibilities for a in roles.values()}
    if len(configured) == 1 and None not in configured:
        v = configured.pop()
        sections["exact_reference"] = [
            ("vx", fmt_float(v.vx)),
            ("vy", fmt_float(v.vy)),
            ("vz", fmt_float(v.vz)),
            ("vx_squared", fmt_float(v.vx ** 2)),
            ("vy_squared", fmt_float(v.vy ** 2)),
            ("csquared", fmt_float(0.0 - v.vz ** 2)),  # 0.0, not -0.0, at vz = 0
            ("classicality_statistic", fmt_float(v.vz ** 2 / 4.0)),
        ]

    parameters = {
        "allow_partial": fmt_bool(args.allow_partial),
        "correct_source_noise": fmt_bool(args.correct_source_noise),
    }
    manifest = write_artifact(args.out, SCHEMA_REPORT, "estimate", {}, sections, parameters)
    for line in summary:
        print(line)
    _diag(f"wrote {args.out} and {manifest}")
    return EXIT_OK


def _reconstruction_visibilities(args) -> tuple[float, float, float]:
    flags = (args.vx, args.vy, args.vz)
    if args.from_report is not None:
        if any(f is not None for f in flags):
            raise UsageError("give either --vx/--vy/--vz or --from-report, not both")
        vx, vy, vz = read_report_visibilities(read_document(args.from_report))
        _diag(
            "note: pair statistics determine only |vz|; using the positive sign, "
            "which conjugates the result if the device's vz is negative"
        )
        return vx, vy, vz
    if any(f is None for f in flags):
        raise UsageError("reconstruct requires --vx, --vy and --vz (or --from-report)")
    # explicit flags name a device, so they must lie in the family, as in build-povm;
    # report values are noisy estimates that may sit just outside it
    v = VisibilityTriple(args.vx, args.vy, args.vz)
    return v.vx, v.vy, v.vz


def cmd_reconstruct(args) -> int:
    if not Path(args.input).exists():
        raise UsageError(f"input file not found: {args.input}")
    doc = read_document(args.input)
    schema = doc.header_value("schema", one_of(SCHEMA_COUNTS, SCHEMA_PROBS))
    if schema == SCHEMA_COUNTS:
        counts = read_counts_document(doc).counts
        if isinstance(counts, PairCounts16):
            where = f"{args.input}:{doc.header_lines['mode']}"
            raise UsageError(f"{where}: reconstruct needs a single-qubit table; pair counts cannot be used")
        probs = counts.counts / counts.total
        reference_label = f"{counts.input_axis}{'+' if counts.input_value == +1 else '-'}"
    else:
        probs, reference_label = read_probs_document(doc)

    vx, vy, vz = _reconstruction_visibilities(args)
    kd = reconstruct_kd(probs, vx, vy, 1j * vz)

    parameters = {"vx": fmt_float(vx), "vy": fmt_float(vy), "vz": fmt_float(vz), "input": str(args.input)}
    entries = kd.entries.tolist()
    real, imag = [fmt_float(e.real) for e in entries], [fmt_float(e.imag) for e in entries]
    sections = {
        "parameters": list(parameters.items()),
        "kd": keyed_rows(OUTCOMES4, real, imag),
        "kd_x_marginals": [(fmt_sign(x), fmt_float(kd.x_marginal(x))) for x in (+1, -1)],
        "kd_y_marginals": [(fmt_sign(y), fmt_float(kd.y_marginal(y))) for y in (+1, -1)],
    }
    if reference_label is not None:
        expected = kd_from_bloch(named_state_bloch(reference_label))
        deviations = [abs(e - x) for e, x in zip(entries, expected.entries.tolist())]
        sections["kd_reference_deviation"] = [
            ("state", reference_label),
            *keyed_rows(OUTCOMES4, map(fmt_float, deviations)),
            ("max_abs", fmt_float(max(0.0, *deviations))),
        ]

    manifest = write_artifact(args.out, SCHEMA_REPORT, "reconstruct", {}, sections, parameters)
    for (x, y), entry in zip(OUTCOMES4, entries):
        print(f"kd({fmt_sign(x)}, {fmt_sign(y)}) = {entry.real:+.6f} {entry.imag:+.6f}i")
    _diag(f"wrote {args.out} and {manifest}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    # the checks key Philox with seed, seed + 1 and seed + 2, as simulate keys it with seed
    if not 0 <= args.seed < 2 ** 64:
        raise UsageError(f"--seed must lie in [0, 2^64), got {args.seed}")
    results = run_all_checks(grid=args.grid, samples=args.samples, seed=args.seed)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


_COMMANDS = {
    "build-povm": cmd_build_povm,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _diag(f"usage error: {exc}")
        return EXIT_USAGE
    except (PositivityError, SingularInversionError) as exc:
        _diag(f"domain error: {exc}")
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:
        _diag(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
