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

from xymeas.fileio import read_counts_file, read_povm_file, read_probs_file

GOLDEN = Path(__file__).resolve().parent / "golden"

READERS = {
    "x.counts": read_counts_file,
    "pair.counts": read_counts_file,
    "zplus.probs": read_probs_file,
    "povm.txt": read_povm_file,
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
