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
* ``xymeas-povm/1``: visibilities plus the four operators entry by entry,
  written by ``build-povm`` for inspection; no command reads it.
* ``xymeas-report/1``: estimation or reconstruction results.
* ``xymeas-manifest/1``: command, timestamp, tool version, artifact names,
  and the full parameter echo of the run that produced them.

Result files never contain timestamps (identical runs are byte-identical);
the manifest, written next to each result file, carries the timestamp and
is referenced from the result's ``manifest`` header key. `write_artifact`
is the one writer of a result and its manifest. Keyed tables (the
``[counts]``, ``[probs]`` and ``[elements]`` rows) are written by
`keyed_rows`; the ``[counts]`` and ``[probs]`` rows are read back by one
row parser, `_parse_keyed`, which locates every fault with ``file:line``.
"""

from __future__ import annotations

import functools
import math
import platform
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _tool_version
from .povm import OUTCOMES4, OUTCOMES16, VisibilityTriple, _checked_table
from .qubit import ATOL_ALGEBRA, bloch_vector
from .simulate import OutcomeCounts4, PairCounts16

SCHEMA_COUNTS = "xymeas-counts/1"
SCHEMA_PROBS = "xymeas-probs/1"
SCHEMA_POVM = "xymeas-povm/1"
SCHEMA_REPORT = "xymeas-report/1"
SCHEMA_MANIFEST = "xymeas-manifest/1"

STATE_LABELS = ("Z+", "Z-", "X+", "X-", "Y+", "Y-", "mixed")

# (x, y, i, j): entry (i, j) of operator (x, y), the row keys of a measurement dump
ELEMENT_KEYS = tuple((x, y, i, j) for x, y in OUTCOMES4 for i in (0, 1) for j in (0, 1))


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_sign(v: int) -> str:
    return "+1" if v == +1 else "-1"


def parse_sign(token: str) -> int:
    """A sign written exactly as `fmt_sign` writes it, ``+1`` or ``-1``."""
    return int(one_of("+1", "-1")(token))


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _parsed(doc: Document, lineno: int, what: str, parse, *tokens):
    """``parse(*tokens)``; a value it rejects is reported at line ``lineno`` of ``doc``."""
    try:
        return parse(*tokens)
    except ValueError as exc:
        raise ValueError(f"{doc._where(lineno)}{what}: {exc}") from None


@dataclass
class Document:
    """An artifact file as `read_document` parses it.

    Besides the header and the sections it records the file it came from in
    ``path``, the line number of each header key in ``header_lines``, of
    each section's ``[name]`` line in ``section_lines`` and of each section
    row in ``row_lines``; its errors start with ``path:`` or ``path:line:``.
    """

    path: str | Path
    header: dict[str, str] = field(default_factory=dict)
    sections: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)
    header_lines: dict[str, int] = field(default_factory=dict)
    section_lines: dict[str, int] = field(default_factory=dict)
    row_lines: dict[str, list[int]] = field(default_factory=dict)

    def _where(self, lineno: int | None = None) -> str:
        return f"{self.path}:{lineno}: " if lineno is not None else f"{self.path}: "

    def header_value(self, key: str, parse=str):
        """Header ``key`` through ``parse``; a value ``parse`` rejects is located at its line."""
        if key not in self.header:
            raise ValueError(f"{self._where()}missing header key {key!r}")
        return _parsed(self, self.header_lines[key], f"header {key}", parse, self.header[key])

    def section(self, name: str) -> list[tuple[str, ...]]:
        if name not in self.sections:
            raise ValueError(f"{self._where()}missing section [{name}]")
        return self.sections[name]

    def section_value(self, name: str, key: str, parse=str):
        """The value of row ``key`` in section ``name`` of a parsed document, through ``parse``.

        A row of other than two tokens, a repeated row and a value ``parse``
        rejects are located at the row, a missing row at the ``[name]`` line.
        """
        found = None
        for row, lineno in zip(self.section(name), self.row_lines[name]):
            if row and row[0] == key:
                if len(row) != 2:
                    raise ValueError(f"{self._where(lineno)}malformed [{name}] row {row!r}")
                if found is not None:
                    raise ValueError(
                        f"{self._where(lineno)}duplicate [{name}] row {key!r} (first on line {found[0]})"
                    )
                found = lineno, row[1]
        if found is None:
            where = self._where(self.section_lines[name])
            raise ValueError(f"{where}missing entry {key!r} in section [{name}]")
        return _parsed(self, found[0], f"[{name}] {key}", parse, found[1])


def write_document(
    path: str | Path, header: dict[str, str], sections: dict[str, list[tuple[str, ...]]]
) -> None:
    """Write ``header`` lines, then each section's ``[name]`` line and token rows."""
    lines = [f"{key}: {value}" for key, value in header.items()]
    for name, rows in sections.items():
        lines.append(f"[{name}]")
        lines.extend(" ".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_document(path: str | Path) -> Document:
    """Parse the header and sections of an artifact file.

    Lines end at a line feed only. Any other byte outside printable ASCII (a
    control byte, carriage return included, or a non-ASCII byte), a malformed
    or repeated header key and a repeated ``[section]`` heading are rejected
    with their ``file:line``.
    """
    data = Path(path).read_bytes()
    bad = re.search(rb"[^ -~\n]", data)  # neither printable ASCII nor a line feed
    if bad is not None:
        i = bad.start()
        lineno = data.count(b"\n", 0, i) + 1
        kind = "non-ASCII" if data[i] >= 0x80 else "control"
        raise ValueError(f"{path}:{lineno}: {kind} byte 0x{data[i]:02x}")
    doc = Document(path=path)
    current: list[tuple[str, ...]] | None = None
    for lineno, raw in enumerate(data.decode("ascii").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in doc.sections:
                raise ValueError(
                    f"{path}:{lineno}: duplicate section [{name}] (first on line {doc.section_lines[name]})"
                )
            current = doc.sections[name] = []
            current_lines = doc.row_lines[name] = []
            doc.section_lines[name] = lineno
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


# -- writing -------------------------------------------------------------------


def write_artifact(
    out: str | Path,
    schema: str,
    command: str,
    header: dict[str, str],
    sections: dict[str, list[tuple[str, ...]]],
    parameters: dict[str, str],
    run: dict[str, str] | None = None,
) -> str:
    """Write the result ``out`` and its manifest next to it; return the manifest's name.

    The result's header is ``schema``, ``command`` and ``manifest``, then
    ``header``. The manifest records the command, a timestamp, the tool,
    numpy and Python versions (the sampled counts of a seed depend on the
    last two) and ``run``, header lines on how the result was made; then it
    names ``out`` and echoes ``parameters``. A command whose header is its
    parameter echo passes the same dict twice.
    """
    out = Path(out)
    manifest = out.name + ".manifest"
    header = {"schema": schema, "command": command, "manifest": manifest, **header}
    write_document(out, header, sections)
    manifest_header = {
        "schema": SCHEMA_MANIFEST,
        "command": command,
        "timestamp_utc": str(int(time.time())),
        "tool_version": _tool_version,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        **(run or {}),
    }
    manifest_sections = {"artifacts": [(out.name,)], "parameters": list(parameters.items())}
    write_document(out.parent / manifest, manifest_header, manifest_sections)
    return manifest


@functools.cache
def _key_tokens(keys: tuple) -> dict[tuple[str, ...], int]:
    """The row tokens of each key of ``keys`` -> its position in ``keys``.

    A key column holding -1 is written as signs ``+1``/``-1``; any other (an
    operator entry index) as digits.
    """
    signs = [-1 in column for column in zip(*keys)]
    return {
        tuple(fmt_sign(v) if sign else str(v) for v, sign in zip(key, signs)): k
        for k, key in enumerate(keys)
    }


def keyed_rows(keys: tuple, *columns) -> list[tuple[str, ...]]:
    """Rows of a keyed table in ``keys`` order: a key's tokens, then one token of each column."""
    return [(*tokens, *values) for tokens, values in zip(_key_tokens(keys), zip(*columns))]


# -- reading -------------------------------------------------------------------


def _parse_keyed(doc: Document, name: str, keys: tuple, parse) -> list:
    """The values of section ``name``, one row per key of ``keys``, in ``keys`` order.

    A row holds a key's tokens (as `keyed_rows` writes them) and then one
    value token, the argument of ``parse``. A row of another length, an
    unknown or repeated key, and a value ``parse`` rejects are located at
    the row; a missing key at the ``[name]`` line.
    """
    index = _key_tokens(keys)
    n = len(keys[0])
    values = [None] * len(keys)
    first: dict[tuple[str, ...], int] = {}
    what = f"[{name}] row"
    for row, lineno in zip(doc.section(name), doc.row_lines[name]):
        key = row[:n]
        if len(row) != n + 1:
            raise ValueError(f"{doc._where(lineno)}malformed {what} {row!r}")
        if key not in index:
            raise ValueError(f"{doc._where(lineno)}{what}: unknown key {' '.join(key)}")
        if key in first:
            raise ValueError(
                f"{doc._where(lineno)}duplicate {what} {' '.join(key)} (first on line {first[key]})"
            )
        first[key] = lineno
        values[index[key]] = _parsed(doc, lineno, what, parse, row[n])
    if len(first) < len(keys):
        missing = next(key for key in index if key not in first)
        raise ValueError(f"{doc._where(doc.section_lines[name])}no {what} for {' '.join(missing)}")
    return values


def _count(token: str) -> int:
    n = int(token)
    if n < 0:
        raise ValueError(f"negative count {n}")
    if str(n) != token:  # int() also takes "+5", "007" and "3_68"
        raise ValueError(f"count {token!r} is not written as {n}")
    return n


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


def _magnitude(token: str) -> float:
    value = _finite(token)
    if value < 0.0:
        raise ValueError(f"{token!r} is negative")
    return value


def _probability(token: str) -> float:
    """A finite table entry within the bounds `kirkwood.reconstruct_kd` applies."""
    value = _finite(token)
    if not -ATOL_ALGEBRA <= value <= 1.0 + ATOL_ALGEBRA:
        raise ValueError(f"{token!r} is not in [{-ATOL_ALGEBRA}, {1.0 + ATOL_ALGEBRA}]")
    return value


def one_of(*choices: str):
    """A token parser that accepts exactly one of ``choices``."""

    def parse(token: str) -> str:
        if token not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {token!r}")
        return token

    return parse


def _werner_p(token: str) -> float:
    value = _finite(token)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{token!r} is not in [0, 1]")
    return value


def _header_visibilities(doc: Document) -> VisibilityTriple:
    """The ``vx``/``vy``/``vz`` headers; a triple outside the family is located at ``vx``."""
    values = [doc.header_value(k, float) for k in ("vx", "vy", "vz")]
    # also a PositivityError: a bad input file is a usage error, not a domain error
    return _parsed(doc, doc.header_lines["vx"], "visibilities", VisibilityTriple, *values)


@dataclass(frozen=True)
class CountsArtifact:
    """A counts file: the counts of its eigenstate or pair run plus the run parameters.

    ``werner_p`` is the recorded Werner parameter of a pair file and the line
    of its header, for errors a later check raises about it; None for an
    eigenstate file and for a pair file that records none.
    """

    counts: OutcomeCounts4 | PairCounts16
    visibilities: VisibilityTriple | None
    werner_p: tuple[float, int] | None
    path: str


def read_counts_document(doc: Document) -> CountsArtifact:
    """The counts artifact held in ``doc``, as parsed by `read_document`.

    A malformed, unknown, duplicated, missing or negative ``[counts]`` row,
    a header number that does not parse, a ``mode`` other than
    ``eigenstate``/``pair``, an ``axis`` other than ``X``/``Y`` or a
    ``value`` other than ``+1``/``-1``, header visibilities outside the
    measurement family, a ``werner_p`` header outside [0, 1], a ``shots``
    header not written as a count or that disagrees with the counts sum, a
    ``randomize_flips`` other than ``true``/``false``, or another mode's key
    (eigenstate ``werner_p``; pair ``axis``, ``value``, ``randomize_flips: true``)
    is rejected with its ``file:line``; a ``[counts]`` table that sums to 0 at
    its ``[counts]`` line. The ``vx``/``vy``/``vz`` headers are optional
    together: with any one present, a missing one is named.
    """
    doc.header_value("schema", one_of(SCHEMA_COUNTS))
    mode = doc.header_value("mode", one_of("eigenstate", "pair"))
    for key in ("werner_p",) if mode == "eigenstate" else ("axis", "value"):
        if key in doc.header:
            raise ValueError(f"{doc._where(doc.header_lines[key])}header {key}: not written in {mode} files")
    if "randomize_flips" in doc.header:
        doc.header_value("randomize_flips", one_of("true", "false") if mode == "eigenstate" else one_of("false"))
    visibilities = None
    if any(k in doc.header for k in ("vx", "vy", "vz")):
        visibilities = _header_visibilities(doc)
    keys = OUTCOMES4 if mode == "eigenstate" else OUTCOMES16
    counts = _parse_keyed(doc, "counts", keys, _count)
    total = sum(counts)
    if total == 0:
        raise ValueError(f"{doc._where(doc.section_lines['counts'])}[counts] rows sum to 0 shots")
    if "shots" in doc.header and doc.header_value("shots", _count) != total:
        raise ValueError(
            f"{doc._where(doc.header_lines['shots'])}shots {doc.header['shots']} disagrees "
            f"with the counts sum {total}"
        )
    werner_p = None
    if mode == "eigenstate":
        counts = OutcomeCounts4(
            counts=counts,
            input_axis=doc.header_value("axis", one_of("X", "Y")),
            input_value=doc.header_value("value", parse_sign),
        )
    else:
        counts = PairCounts16(counts=counts)
        if "werner_p" in doc.header:
            werner_p = doc.header_value("werner_p", _werner_p), doc.header_lines["werner_p"]
    return CountsArtifact(
        counts=counts, visibilities=visibilities, werner_p=werner_p, path=str(doc.path)
    )


def read_report_visibilities(doc: Document) -> tuple[float, float, float]:
    """``vx``, ``vy`` and ``|vz|`` of an estimate report, each located at its row when it is bad."""
    doc.header_value("schema", one_of(SCHEMA_REPORT))
    vx = doc.section_value("visibility_x", "value", _finite)
    vy = doc.section_value("visibility_y", "value", _finite)
    vz = doc.section_value("csquared", "vz_magnitude", _magnitude)
    return vx, vy, vz


# -- exact probability tables --------------------------------------------------


def write_probs_file(path: str | Path, probs, state: str | None = None) -> None:
    """Write the outcome table ``probs``, four numbers in ``OUTCOMES4`` order.

    A table `read_probs_document` would reject is refused with the reader's
    own bounds: an entry outside ``[-ATOL_ALGEBRA, 1 + ATOL_ALGEBRA]`` or a
    sum more than 1e-9 from 1.
    """
    header = {"schema": SCHEMA_PROBS}
    if state is not None:
        header["state"] = one_of(*STATE_LABELS)(state)
    probs = _checked_table(probs, 4, low=-ATOL_ALGEBRA, high=1.0 + ATOL_ALGEBRA, total=1.0, what="probs")
    rows = keyed_rows(OUTCOMES4, map(fmt_float, probs.tolist()))
    write_document(path, header, {"probs": rows})


def read_probs_document(doc: Document) -> tuple[np.ndarray, str | None]:
    """The outcome table and state label held in ``doc``, as parsed by `read_document`.

    The table is a read-only vector in ``OUTCOMES4`` order. Besides the row
    faults of `_parse_keyed`, an entry that is not finite or lies outside
    ``[-ATOL_ALGEBRA, 1 + ATOL_ALGEBRA]`` is located at its row, a table that
    does not sum to 1 (within 1e-9, the tolerance of every probability
    table) at the ``[probs]`` line, and a ``state`` header that is not one
    of ``STATE_LABELS`` at its line.
    """
    doc.header_value("schema", one_of(SCHEMA_PROBS))
    probs = _parse_keyed(doc, "probs", OUTCOMES4, _probability)
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        where = doc._where(doc.section_lines["probs"])
        raise ValueError(f"{where}[probs] entries sum to {total!r}, expected 1")
    state = doc.header_value("state", one_of(*STATE_LABELS)) if "state" in doc.header else None
    return _checked_table(probs, 4), state


def named_state_bloch(label: str) -> np.ndarray:
    """Bloch vector of a state label used in probability files, as integers; ``mixed`` is 0."""
    if one_of(*STATE_LABELS)(label) == "mixed":
        return np.zeros(3, dtype=int)
    return bloch_vector(label[0], +1 if label[1] == "+" else -1)
