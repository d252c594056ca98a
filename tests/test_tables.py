"""Every table is one read-only 1-D numpy vector in its fixed key order.

Outcome tables run in ``OUTCOMES4`` or ``OUTCOMES16`` order, pattern tables
in ``PATTERNS`` order. Each record field and each function returning a
table gives such a vector, and no record or reader takes a mapping.
"""

import numpy as np
import pytest

from oracles import (
    ErrorModel,
    eigenstate_probs_from_error_model,
    error_model_from_visibilities,
    density,
    family_operators,
    forward_map,
    kd_pair_from_state,
    pair_outcome_probs,
    pattern_quasiprobs,
    predicted_pattern_probs,
    singlet,
)
from xymeas.fileio import read_document, read_probs_document, write_probs_file
from xymeas.kirkwood import KDDistribution, kd_from_bloch, reconstruct_kd
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    outcome_table,
)
from xymeas.qubit import bloch_vector
from xymeas.simulate import OutcomeCounts4, PairCounts16

POVM = build_povm(VisibilityTriple(0.5, 0.4, 0.3))
OPERATORS = family_operators(VisibilityTriple(0.5, 0.4, 0.3))
MODEL = error_model_from_visibilities(0.5, 0.4, 0.3j)
ZPLUS = bloch_vector("Z", +1)
SINGLET = density(singlet())


def probs_read_back(tmp_path):
    path = tmp_path / "p.txt"
    write_probs_file(path, [0.1, 0.2, 0.3, 0.4])
    return read_probs_document(read_document(path))[0]


# (name, keys, table); a table is built from a temporary directory
TABLES = [
    ("OutcomeCounts4.counts", OUTCOMES4, lambda _: OutcomeCounts4([1, 2, 3, 4], "X", +1).counts),
    ("PairCounts16.counts", OUTCOMES16, lambda _: PairCounts16(range(16)).counts),
    ("exact_pattern_probs", PATTERNS, lambda _: exact_pattern_probs(VisibilityTriple(0.5, 0.4, 0.3))),
    ("ErrorModel.weights", PATTERNS, lambda _: MODEL.weights),
    ("KDDistribution.entries", OUTCOMES4, lambda _: kd_from_bloch(ZPLUS).entries),
    ("outcome_table", OUTCOMES4, lambda _: outcome_table(POVM, ZPLUS)),
    ("pair_outcome_probs", OUTCOMES16, lambda _: pair_outcome_probs(OPERATORS, OPERATORS, SINGLET)),
    ("kd_pair_from_state", OUTCOMES16, lambda _: kd_pair_from_state(SINGLET)),
    ("forward_map", OUTCOMES4, lambda _: forward_map(kd_from_bloch(ZPLUS), MODEL)),
    ("pattern_quasiprobs", PATTERNS, lambda _: pattern_quasiprobs(MODEL)),
    ("predicted_pattern_probs", PATTERNS, lambda _: predicted_pattern_probs(MODEL)),
    ("eigenstate_probs_from_error_model", OUTCOMES4, lambda _: eigenstate_probs_from_error_model(MODEL, "X")),
    ("read_probs_document", OUTCOMES4, probs_read_back),
]


@pytest.mark.parametrize("keys, build", [t[1:] for t in TABLES], ids=[t[0] for t in TABLES])
def test_table_is_a_read_only_vector_in_key_order(tmp_path, keys, build):
    table = build(tmp_path)
    assert type(table) is np.ndarray
    assert table.shape == (len(keys),)
    assert not table.flags.writeable


@pytest.mark.parametrize(
    "build",
    [
        lambda m: OutcomeCounts4(m(OUTCOMES4), "X", +1),
        lambda m: PairCounts16(m(OUTCOMES16)),
        lambda m: ErrorModel(m(PATTERNS)),
        lambda m: KDDistribution(m(OUTCOMES4)),
        lambda m: reconstruct_kd(m(OUTCOMES4), 0.5, 0.4, 0.3j),
    ],
    ids=["OutcomeCounts4", "PairCounts16", "ErrorModel", "KDDistribution", "reconstruct_kd"],
)
def test_mapping_input_rejected(build):
    def mapping(keys):
        return {key: 1.0 / len(keys) for key in keys}

    # numpy reads a mapping as one object: a 0-d array, or no number at all
    with pytest.raises((TypeError, ValueError)):
        build(mapping)
