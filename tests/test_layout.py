"""The package ships one path per computation; per-record forms live in ``tests/oracles.py``."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xymeas import analysis, checks, fileio, kirkwood, povm, qubit
from xymeas.simulate import OutcomeCounts4, PairCounts16

ROOT = Path(__file__).resolve().parent.parent

# each name `oracles` holds, by the module or class it was once defined in
MOVED = {
    analysis: (
        "ErrorModel",
        "error_model_from_visibilities",
        "visibilities_from_error_model",
        "eigenstate_probs_from_error_model",
        "pattern_quasiprobs",
        "predicted_pattern_probs",
        "pattern_of",
    ),
    kirkwood: ("forward_map", "kd_pair_from_state", "random_qubit_density"),
    qubit: ("trace_product", "tensor", "min_eigenvalue_hermitian", "is_hermitian"),
}


def test_oracle_names_are_not_in_the_package():
    left = [
        f"{owner.__name__}.{name}" for owner, names in MOVED.items() for name in names if hasattr(owner, name)
    ]
    assert left == []


# capability no command used: the measurement-dump reader and the two-qubit KD path;
# and the second summation order with the wrapper around the element array
REMOVED = {
    fileio: ("read_povm_file", "_entry"),
    qubit: ("tensor_state",),
    kirkwood: ("_product_kets",),
    povm: ("_sum4", "JointPovm"),
    checks: ("_hadamard_by_parts",),
}


def test_removed_names_stay_removed():
    left = [
        f"{owner.__name__}.{name}" for owner, names in REMOVED.items() for name in names if hasattr(owner, name)
    ]
    assert left == []


@pytest.mark.parametrize(
    "function, parameter",
    [(kirkwood._kd_entries, "outcomes"), (fileio._parse_keyed, "width")],
    ids=["_kd_entries", "_parse_keyed"],
)
def test_one_shape_parameters_are_gone(function, parameter):
    # _kd_entries serves qubit states only, _parse_keyed one value per row
    assert parameter not in inspect.signature(function).parameters


def test_kirkwood_does_not_import_analysis():
    code = "import sys, xymeas.kirkwood; print('xymeas.analysis' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_kirkwood_holds_no_self_check():
    # the operator-identity check and its state sampler live in `checks` with the other three
    assert not hasattr(kirkwood, "verify_operator_identities")
    assert not hasattr(kirkwood, "_random_qubit_densities")
    assert hasattr(checks, "_random_qubit_densities")


@pytest.mark.parametrize(
    "build, size",
    [(lambda t: OutcomeCounts4(t, "X", +1), 4), (PairCounts16, 16)],
    ids=["OutcomeCounts4", "PairCounts16"],
)
@pytest.mark.parametrize("kind", ["probabilities", "whole-floats"])
def test_count_records_reject_a_float_table(build, size, kind):
    table = [1.0 / size] * size if kind == "probabilities" else [3.0] * size
    with pytest.raises(ValueError, match="integer shot counts"):
        build(table)
    assert build(np.full(size, 3)).counts.dtype.kind == "i"
