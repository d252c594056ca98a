"""The package ships one path per computation; per-record forms live in ``tests/oracles.py``."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from xymeas import analysis, checks, cli, fileio, kirkwood, povm, qubit, simulate
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
    kirkwood: ("forward_map", "kd_pair_from_state", "kd_from_state"),
    qubit: (
        "trace_product",
        "tensor",
        "min_eigenvalue_hermitian",
        "is_hermitian",
        "eigenstate",
        "singlet",
        "ensure_state_vector",
        "density",
        "ensure_density_matrix",
        "_EIGENSTATE",
        "_as_complex_array",
    ),
    povm: ("pair_outcome_probs", "_real_probs"),
    simulate: ("werner_state",),
}


def test_oracle_names_are_not_in_the_package():
    left = [
        f"{owner.__name__}.{name}" for owner, names in MOVED.items() for name in names if hasattr(owner, name)
    ]
    assert left == []


# capability no command used: the measurement-dump reader and the two-qubit KD path;
# the second summation order with the wrapper around the element array; and the
# ket and density-matrix forms of a qubit state, which its Bloch vector replaces; and the
# pattern-table record and its two-step path, which the `pattern_cells` contrasts replace
REMOVED = {
    fileio: ("read_povm_file", "_entry", "named_state_density"),
    qubit: ("tensor_state",),
    kirkwood: ("_product_kets", "random_qubit_density", "_KET_X", "_KET_Y", "_OVERLAP"),
    povm: ("_sum4", "JointPovm", "outcome_probs", "PatternStats"),
    simulate: ("eigenstate_table",),
    checks: ("_hadamard_by_parts", "_random_qubit_densities"),
    analysis: ("collapse_pair_counts", "correct_for_source_noise"),
}


def test_removed_names_stay_removed():
    left = [
        f"{owner.__name__}.{name}" for owner, names in REMOVED.items() for name in names if hasattr(owner, name)
    ]
    assert left == []


@pytest.mark.parametrize(
    "function, parameter",
    [(kirkwood._kd_entries, "outcomes"), (fileio._parse_keyed, "width"), (qubit.identity, "dim"),
     (analysis.pattern_estimates, "shots")],
    ids=["_kd_entries", "_parse_keyed", "identity", "pattern_estimates"],
)
def test_one_shape_parameters_are_gone(function, parameter):
    # _kd_entries serves qubit states only, _parse_keyed one value per row, identity 2x2 only;
    # pattern_estimates reads its shot count off the pair record
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
    assert not hasattr(kirkwood, "_random_bloch_vectors")
    assert hasattr(checks, "_random_bloch_vectors")


# each count record's constructor from a table, and the table's size
COUNT_RECORDS = pytest.mark.parametrize(
    "build, size",
    [(lambda t: OutcomeCounts4(t, "X", +1), 4), (PairCounts16, 16)],
    ids=["OutcomeCounts4", "PairCounts16"],
)


@COUNT_RECORDS
@pytest.mark.parametrize("kind", ["probabilities", "whole-floats"])
def test_count_records_reject_a_float_table(build, size, kind):
    table = [1.0 / size] * size if kind == "probabilities" else [3.0] * size
    with pytest.raises(ValueError, match="integer shot counts"):
        build(table)
    assert build(np.full(size, 3)).counts.dtype.kind == "i"


@COUNT_RECORDS
def test_count_records_reject_zero_shots(build, size):
    # the one zero-shot guard: no estimator divides by a total of 0
    with pytest.raises(ValueError, match="counts: expected at least one shot"):
        build([0] * size)
    assert build([0] * (size - 1) + [1]).total == 1


# numpy names that reach BLAS or LAPACK, or run a matrix product
BLAS_NAMES = {"linalg", "matmul", "dot", "vdot", "inner", "tensordot", "kron"}


def _blas_uses(source: str) -> list[str]:
    """Each ``@`` and each use of a `BLAS_NAMES` attribute in ``source``, by line."""
    uses = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            uses.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append(f"{node.lineno}: {node.attr}")
    return uses


@pytest.mark.parametrize(
    "code",
    [simulate, kirkwood, qubit, povm.outcome_table, povm.ideal_operator, checks.check_operator_identities],
    ids=["simulate", "kirkwood", "qubit", "outcome_table", "ideal_operator", "check_operator_identities"],
)
def test_sampling_and_verify_products_call_no_blas(code):
    # so their digits depend on neither the BLAS library nor its kernel
    assert _blas_uses(inspect.getsource(code)) == []


def test_linalg_only_normalizes_the_random_bloch_vectors():
    # no eigensolve and no 4x4 path is left in the package: a qubit state is its Bloch vector
    def linalg(code) -> int:
        return sum(use.endswith(": linalg") for use in _blas_uses(inspect.getsource(code)))

    modules = (analysis, checks, cli, fileio, kirkwood, povm, qubit, simulate)
    assert sum(map(linalg, modules)) == linalg(checks._random_bloch_vectors) == 1
