"""Mutated artifact files are read or rejected with their path, never anything else.

Each example takes one golden fixture and applies a single mutation:
deletes a line, duplicates a line, swaps two lines, or replaces one byte
with any byte value. The fixture's reader must then either return or raise
a ``ValueError`` whose message starts with the file's path. A byte that is
neither printable ASCII nor a line feed must be rejected at its own line,
counted in line feeds.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xymeas.fileio import (
    SCHEMA_REPORT,
    _finite,
    _magnitude,
    one_of,
    read_counts_document,
    read_document,
    read_probs_document,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_report_visibilities(path):
    """The three rows ``reconstruct --from-report`` reads from an estimate report."""
    doc = read_document(path)
    doc.header_value("schema", one_of(SCHEMA_REPORT))
    rows = (
        ("visibility_x", "value", _finite),
        ("visibility_y", "value", _finite),
        ("csquared", "vz_magnitude", _magnitude),
    )
    return [doc.section_value(name, key, parse) for name, key, parse in rows]


READERS = {
    "x.counts": lambda path: read_counts_document(read_document(path)),
    "pair.counts": lambda path: read_counts_document(read_document(path)),
    "zplus.probs": lambda path: read_probs_document(read_document(path)),
    "estimate.report": read_report_visibilities,
}


@st.composite
def mutated_fixtures(draw):
    """A fixture's name, its mutated bytes, and the line of a mutated byte that must be rejected."""
    name = draw(st.sampled_from(sorted(READERS)))
    data = (GOLDEN / name).read_bytes()
    lines = data.splitlines(keepends=True)
    mutation = draw(st.sampled_from(["delete", "duplicate", "swap", "byte"]))
    if mutation == "byte":
        i = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255))
        unprintable = byte != 0x0A and not 0x20 <= byte <= 0x7E
        line = data.count(b"\n", 0, i) + 1 if unprintable else None
        return name, data[:i] + bytes([byte]) + data[i + 1:], line
    i = draw(st.integers(0, len(lines) - 1))
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return name, b"".join(lines), None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(case=mutated_fixtures())
def test_mutated_fixture_is_read_or_rejected_with_its_path(fuzz_dir, case):
    name, data, line = case
    path = fuzz_dir / name
    path.write_bytes(data)
    try:
        READERS[name](path)
    except ValueError as exc:
        where = f"{path}:" if line is None else f"{path}:{line}: "
        assert str(exc).startswith(where), str(exc)
    else:
        assert line is None, f"byte on line {line} was read"
