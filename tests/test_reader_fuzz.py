"""Mutated artifact files are read or rejected with their path, never anything else.

Each example takes one golden fixture and applies a single mutation:
deletes a line, duplicates a line, swaps two lines, or replaces one byte
with any byte value. The fixture's reader must then either return or raise
a ``ValueError`` whose message starts with the file's path.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xymeas.fileio import (
    SCHEMA_REPORT,
    one_of,
    read_counts_document,
    read_document,
    read_povm_file,
    read_probs_document,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_report_visibilities(path):
    """The three rows ``reconstruct --from-report`` reads from an estimate report."""
    doc = read_document(path)
    doc.header_value("schema", one_of(SCHEMA_REPORT))
    rows = (("visibility_x", "value"), ("visibility_y", "value"), ("csquared", "vz_magnitude"))
    return [doc.section_value(name, key, float) for name, key in rows]


READERS = {
    "x.counts": lambda path: read_counts_document(read_document(path)),
    "pair.counts": lambda path: read_counts_document(read_document(path)),
    "zplus.probs": lambda path: read_probs_document(read_document(path)),
    "povm.txt": read_povm_file,
    "estimate.report": read_report_visibilities,
}


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(sorted(READERS)))
    data = (GOLDEN / name).read_bytes()
    lines = data.splitlines(keepends=True)
    mutation = draw(st.sampled_from(["delete", "duplicate", "swap", "byte"]))
    if mutation == "byte":
        i = draw(st.integers(0, len(data) - 1))
        return name, data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    i = draw(st.integers(0, len(lines) - 1))
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return name, b"".join(lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(case=mutated_fixtures())
def test_mutated_fixture_is_read_or_rejected_with_its_path(fuzz_dir, case):
    name, data = case
    path = fuzz_dir / name
    path.write_bytes(data)
    try:
        READERS[name](path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
