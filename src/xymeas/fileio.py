"""Plain-text artifact files: counts, probability tables, measurement dumps, reports.

One line-oriented format serves every artifact. A document starts with
header lines ``key: value`` and continues with sections, each introduced by
``[name]`` and holding whitespace-separated token rows:

    schema: xymeas-counts/1
    command: simulate
    mode: pair
    ...
    [counts]
    +1 +1 +1 +1 62503

Floats are serialized with 17 significant digits so they round-trip
losslessly; outcome signs are written ``+1`` / ``-1``. Schema identifiers:

* ``xymeas-counts/1``: eigenstate or pair run counts plus the run parameters.
* ``xymeas-probs/1``: exact single-qubit outcome probability table, with an
  optional ``state`` label naming the input.
* ``xymeas-povm/1``: visibilities plus the four operators entry by entry.
* ``xymeas-report/1``: estimation or reconstruction results.
* ``xymeas-manifest/1``: command, timestamp, tool version, artifact names,
  and the full parameter echo of the run that produced them.

Result files never contain timestamps (identical runs are byte-identical);
the manifest, written next to each result file, carries the timestamp and
is referenced from the result's ``manifest`` header key.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _tool_version
from .povm import OUTCOMES4, VisibilityTriple
from .simulate import ExperimentConfig, OutcomeCounts4, PairCounts16

SCHEMA_COUNTS = "xymeas-counts/1"
SCHEMA_PROBS = "xymeas-probs/1"
SCHEMA_POVM = "xymeas-povm/1"
SCHEMA_REPORT = "xymeas-report/1"
SCHEMA_MANIFEST = "xymeas-manifest/1"

STATE_LABELS = ("Z+", "Z-", "X+", "X-", "Y+", "Y-", "mixed")


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_sign(v: int) -> str:
    return "+1" if v == +1 else "-1"


def parse_sign(token: str) -> int:
    if token in ("+1", "1"):
        return +1
    if token == "-1":
        return -1
    raise ValueError(f"expected +1 or -1, got {token!r}")


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def parse_bool(token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ValueError(f"expected true or false, got {token!r}")


@dataclass
class Document:
    """Parsed or to-be-written artifact file.

    A parsed document also records the file it came from in ``path``, the
    line number of each header key in ``header_lines``, of each section's
    ``[name]`` line in ``section_lines`` and of each section row in
    ``row_lines``; its "missing" errors start with ``path:`` or ``path:line:``.
    """

    header: dict[str, str] = field(default_factory=dict)
    sections: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)
    header_lines: dict[str, int] = field(default_factory=dict)
    section_lines: dict[str, int] = field(default_factory=dict)
    row_lines: dict[str, list[int]] = field(default_factory=dict)
    path: str | Path | None = None

    def _where(self, lineno: int | None = None) -> str:
        if self.path is None:
            return ""
        return f"{self.path}:{lineno}: " if lineno is not None else f"{self.path}: "

    def require(self, key: str) -> str:
        if key not in self.header:
            raise ValueError(f"{self._where()}missing header key {key!r}")
        return self.header[key]

    def section(self, name: str) -> list[tuple[str, ...]]:
        if name not in self.sections:
            raise ValueError(f"{self._where()}missing section [{name}]")
        return self.sections[name]

    def section_value(self, name: str, key: str) -> str:
        for row in self.section(name):
            if row and row[0] == key:
                return row[1]
        where = self._where(self.section_lines.get(name))
        raise ValueError(f"{where}missing entry {key!r} in section [{name}]")


def write_document(path: str | Path, doc: Document) -> None:
    lines = [f"{key}: {value}" for key, value in doc.header.items()]
    for name, rows in doc.sections.items():
        lines.append(f"[{name}]")
        lines.extend(" ".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_document(path: str | Path) -> Document:
    """Parse the header and sections of an artifact file.

    A malformed or repeated header key is rejected with its ``file:line``.
    """
    doc = Document(path=path)
    current: list[tuple[str, ...]] | None = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            current = doc.sections.setdefault(name, [])
            current_lines = doc.row_lines.setdefault(name, [])
            doc.section_lines.setdefault(name, lineno)
        elif current is None:
            key, sep, value = line.partition(":")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}:{lineno}: malformed header line {raw!r}")
            if key in doc.header:
                raise ValueError(
                    f"{path}:{lineno}: duplicate header key {key!r} "
                    f"(first on line {doc.header_lines[key]})"
                )
            doc.header[key] = value.strip()
            doc.header_lines[key] = lineno
        else:
            current.append(tuple(line.split()))
            current_lines.append(lineno)
    if "schema" not in doc.header:
        raise ValueError(f"{path}: missing schema header")
    return doc


def expect_schema(doc: Document, schema: str, path: str | Path) -> None:
    found = doc.require("schema")
    if found != schema:
        raise ValueError(f"{path}: expected schema {schema}, found {found}")


# -- manifests ---------------------------------------------------------------


def write_manifest(
    path: str | Path,
    command: str,
    parameters: dict[str, str],
    artifacts: list[str],
    timestamp: int | None = None,
    run: dict[str, str] | None = None,
) -> None:
    """Write a manifest; ``run`` adds header lines on how the artifacts were made.

    Every manifest records the numpy and Python versions, on which the
    sampled counts of a seed depend.
    """
    doc = Document(
        header={
            "schema": SCHEMA_MANIFEST,
            "command": command,
            "timestamp_utc": str(int(time.time()) if timestamp is None else timestamp),
            "tool_version": _tool_version,
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            **(run or {}),
        },
        sections={
            "artifacts": [(name,) for name in artifacts],
            "parameters": [(key, value) for key, value in parameters.items()],
        },
    )
    write_document(path, doc)


# -- counts ------------------------------------------------------------------


def _config_header(config: ExperimentConfig) -> dict[str, str]:
    return {
        "vx": fmt_float(config.visibilities.vx),
        "vy": fmt_float(config.visibilities.vy),
        "vz": fmt_float(config.visibilities.vz),
        "shots": str(config.shots),
        "seed": str(config.seed),
        "randomize_flips": fmt_bool(config.randomize_flips),
    }


def write_eigenstate_counts(
    path: str | Path, counts: OutcomeCounts4, config: ExperimentConfig, manifest_name: str
) -> None:
    header = {
        "schema": SCHEMA_COUNTS,
        "command": "simulate",
        "manifest": manifest_name,
        "mode": "eigenstate",
        "axis": counts.input_axis,
        "value": fmt_sign(counts.input_value),
    }
    header.update(_config_header(config))
    write_document(path, Document(header=header, sections={"counts": _counts_rows(counts.counts)}))


def write_pair_counts(
    path: str | Path, counts: PairCounts16, config: ExperimentConfig, manifest_name: str
) -> None:
    header = {
        "schema": SCHEMA_COUNTS,
        "command": "simulate",
        "manifest": manifest_name,
        "mode": "pair",
    }
    header.update(_config_header(config))
    header["werner_p"] = fmt_float(config.werner_p)
    write_document(path, Document(header=header, sections={"counts": _counts_rows(counts.counts)}))


def _counts_rows(table) -> list[tuple[str, ...]]:
    return [(*map(fmt_sign, outcome), str(n)) for outcome, n in table.items()]


@dataclass(frozen=True)
class CountsArtifact:
    """A counts file plus the run parameters recorded with it."""

    mode: str  # "eigenstate" or "pair"
    eigenstate_counts: OutcomeCounts4 | None
    pair_counts: PairCounts16 | None
    visibilities: VisibilityTriple | None
    werner_p: float | None
    path: str


def _parsed(parse, token: str, path, lineno: int, what: str):
    """``parse(token)``; a token it rejects is reported at ``path:lineno``."""
    try:
        return parse(token)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {what}: {exc}") from None


def _header_value(doc: Document, key: str, path, parse=float):
    """Header ``key`` of a parsed document, through ``parse``, located on a bad value."""
    return _parsed(parse, doc.require(key), path, doc.header_lines[key], f"header {key}")


def _header_visibilities(doc: Document, path) -> VisibilityTriple:
    """The ``vx``/``vy``/``vz`` headers; a triple outside the family is located at ``vx``."""
    values = [_header_value(doc, k, path) for k in ("vx", "vy", "vz")]
    try:
        return VisibilityTriple(*values)
    except ValueError as exc:
        # also a PositivityError: a bad input file is a usage error, not a domain error
        raise ValueError(f"{path}:{doc.header_lines['vx']}: visibilities: {exc}") from None


def section_number(doc: Document, section: str, key: str, path, parse=float):
    """The value of row ``key`` in ``section``, through ``parse``, located on a bad value."""
    for row, lineno in zip(doc.section(section), doc.row_lines[section]):
        if row and row[0] == key:
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: malformed [{section}] row {row!r}")
            return _parsed(parse, row[1], path, lineno, f"[{section}] {key}")
    raise ValueError(f"{path}:{doc.section_lines[section]}: missing entry {key!r} in section [{section}]")


def _outcome_rows(doc: Document, section: str, path, width: int, parse) -> dict:
    """Rows of ``section`` as {outcome signs: parsed last token}, each checked."""
    table = {}
    what = f"[{section}] row"
    for row, lineno in zip(doc.section(section), doc.row_lines[section]):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: malformed {what} {row!r}")
        outcome = tuple(_parsed(parse_sign, t, path, lineno, what) for t in row[:-1])
        if outcome in table:
            raise ValueError(f"{path}:{lineno}: duplicate {what} for outcome {row[:-1]}")
        table[outcome] = _parsed(parse, row[-1], path, lineno, what)
    return table


def read_counts_document(doc: Document, path: str | Path) -> CountsArtifact:
    """The counts artifact held in ``doc``, as parsed from ``path`` by `read_document`.

    A malformed or duplicated outcome row, a header number that does not
    parse, header visibilities outside the measurement family, or a
    ``shots`` header that disagrees with the counts sum is rejected with its
    ``file:line``.
    """
    expect_schema(doc, SCHEMA_COUNTS, path)
    mode = doc.require("mode")
    if mode not in ("eigenstate", "pair"):
        raise ValueError(f"{path}: unknown counts mode {mode!r}")
    visibilities = None
    if all(k in doc.header for k in ("vx", "vy", "vz")):
        visibilities = _header_visibilities(doc, path)
    counts = _outcome_rows(doc, "counts", path, 3 if mode == "eigenstate" else 5, int)
    total = sum(counts.values())
    if "shots" in doc.header and _header_value(doc, "shots", path, int) != total:
        raise ValueError(
            f"{path}:{doc.header_lines['shots']}: shots {doc.header['shots']} disagrees "
            f"with the counts sum {total}"
        )
    if mode == "eigenstate":
        eigenstate_counts = OutcomeCounts4(
            counts=counts,
            total=total,
            input_axis=doc.require("axis"),
            input_value=_header_value(doc, "value", path, parse_sign),
        )
        pair_counts = None
        werner_p = None
    else:
        eigenstate_counts = None
        pair_counts = PairCounts16(counts=counts, total=total)
        werner_p = _header_value(doc, "werner_p", path) if "werner_p" in doc.header else None
    return CountsArtifact(
        mode=mode,
        eigenstate_counts=eigenstate_counts,
        pair_counts=pair_counts,
        visibilities=visibilities,
        werner_p=werner_p,
        path=str(path),
    )


def read_counts_file(path: str | Path) -> CountsArtifact:
    """Parse a counts file; see `read_counts_document`."""
    return read_counts_document(read_document(path), path)


# -- exact probability tables --------------------------------------------------


def write_probs_file(
    path: str | Path,
    probs: dict[tuple[int, int], float],
    state: str | None = None,
    manifest_name: str | None = None,
) -> None:
    header = {"schema": SCHEMA_PROBS}
    if manifest_name is not None:
        header["manifest"] = manifest_name
    if state is not None:
        if state not in STATE_LABELS:
            raise ValueError(f"unknown state label {state!r}, expected one of {STATE_LABELS}")
        header["state"] = state
    rows = [(fmt_sign(x), fmt_sign(y), fmt_float(probs[(x, y)])) for x, y in OUTCOMES4]
    write_document(path, Document(header=header, sections={"probs": rows}))


def read_probs_document(
    doc: Document, path: str | Path
) -> tuple[dict[tuple[int, int], float], str | None]:
    """The table and state label held in ``doc``, as parsed from ``path`` by `read_document`."""
    expect_schema(doc, SCHEMA_PROBS, path)
    probs = _outcome_rows(doc, "probs", path, 3, float)
    if set(probs) != set(OUTCOMES4):
        raise ValueError(f"{path}: probability table must cover the four outcomes")
    return probs, doc.header.get("state")


def read_probs_file(path: str | Path) -> tuple[dict[tuple[int, int], float], str | None]:
    """Parse a probability file; see `read_probs_document`."""
    return read_probs_document(read_document(path), path)


def named_state_density(label: str):
    """Density matrix of a state label used in probability files."""
    from .qubit import density, eigenstate, identity

    if label == "mixed":
        return identity(2) / 2.0
    if label in STATE_LABELS:
        return density(eigenstate(label[0], +1 if label[1] == "+" else -1))
    raise ValueError(f"unknown state label {label!r}")


# -- measurement dumps ---------------------------------------------------------


def write_povm_file(path: str | Path, povm, manifest_name: str) -> None:
    v = povm.visibilities
    header = {
        "schema": SCHEMA_POVM,
        "command": "build-povm",
        "manifest": manifest_name,
        "vx": fmt_float(v.vx),
        "vy": fmt_float(v.vy),
        "vz": fmt_float(v.vz),
    }
    rows = []
    for x, y in OUTCOMES4:
        el = povm.elements[(x, y)]
        for i in range(2):
            for j in range(2):
                rows.append(
                    (
                        fmt_sign(x),
                        fmt_sign(y),
                        str(i),
                        str(j),
                        fmt_float(el[i, j].real),
                        fmt_float(el[i, j].imag),
                    )
                )
    write_document(path, Document(header=header, sections={"elements": rows}))


def read_povm_file(path: str | Path):
    """Parse a measurement dump: visibilities and the four 2x2 operators.

    Each operator entry must have exactly one row; a malformed, duplicated or
    missing row, a header number that does not parse, or header visibilities
    outside the family, is rejected with its ``file:line`` (the
    ``[elements]`` line for a missing row).
    """
    doc = read_document(path)
    expect_schema(doc, SCHEMA_POVM, path)
    v = _header_visibilities(doc, path)
    elements = {o: np.zeros((2, 2), dtype=complex) for o in OUTCOMES4}
    seen = set()
    for row, lineno in zip(doc.section("elements"), doc.row_lines["elements"]):
        if len(row) != 6 or row[2] not in ("0", "1") or row[3] not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: malformed element row {row!r}")
        x, y = (_parsed(parse_sign, t, path, lineno, "element row") for t in row[:2])
        i, j = int(row[2]), int(row[3])
        if (x, y, i, j) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate element row {row[:4]}")
        seen.add((x, y, i, j))
        real, imag = (_parsed(float, t, path, lineno, "element row") for t in row[4:])
        elements[(x, y)][i, j] = complex(real, imag)
    missing = [
        (x, y, i, j) for x, y in OUTCOMES4 for i in (0, 1) for j in (0, 1) if (x, y, i, j) not in seen
    ]
    if missing:
        x, y, i, j = missing[0]
        raise ValueError(
            f"{path}:{doc.section_lines['elements']}: no element row for "
            f"{fmt_sign(x)} {fmt_sign(y)} {i} {j}"
        )
    return v, elements
