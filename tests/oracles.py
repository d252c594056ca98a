"""Per-record reference functions that only the tests call.

The commands work on whole tables and stacks; these are the one-record
forms the tests state identities with. Each wraps the library's own
arithmetic (`povm._hadamard`, `analysis._self_convolution`,
`checks._random_qubit_densities`, `qubit._lowest_eigenvalues`,
`povm._checked_table`) or plain numpy (``np.kron``, ``np.trace``), and
never adds up a sum of its own that the library also computes, so a test
through an oracle still tests the sums the commands run, each added left
to right from +0.0. `element` picks one operator out of the element array
`povm.build_povm` returns. The pair quasi-probability, which no command
computes, is plain numpy over ``np.kron`` product kets. `pattern_of`
states a pair outcome's flip pattern from its four signs, the rule the
bit arithmetic of `analysis._PATTERN_INDEX16` encodes. Each keeps only
the validation some test checks.
"""

from dataclasses import dataclass

import numpy as np

from xymeas.analysis import _self_convolution
from xymeas.checks import _random_qubit_densities
from xymeas.kirkwood import KDDistribution
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    PatternStats,
    _checked_table,
    _hadamard,
)
from xymeas.qubit import ATOL_ALGEBRA, ATOL_EIG, _lowest_eigenvalues, eigenstate

# -- qubit operators -----------------------------------------------------------


def is_hermitian(m, atol: float = ATOL_ALGEBRA) -> bool:
    """Whether a matrix, or every matrix of a (..., d, d) stack, is Hermitian within ``atol``."""
    arr = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(arr - arr.conj().swapaxes(-1, -2))) <= atol)


def tensor(a, b) -> np.ndarray:
    """``np.kron`` of two 2x2 single-qubit operators."""
    if np.shape(a) != (2, 2) or np.shape(b) != (2, 2):
        raise ValueError(f"tensor expects 2x2 factors, got shapes {np.shape(a)} and {np.shape(b)}")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def trace_product(m, rho) -> complex:
    """``np.trace(m @ rho)`` of two 2x2 or two 4x4 operators."""
    m, rho = np.asarray(m, dtype=complex), np.asarray(rho, dtype=complex)
    if m.shape != rho.shape or m.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"operands must be one 2x2 or 4x4 matrix each, got {m.shape} and {rho.shape}")
    return complex(np.trace(m @ rho))


def min_eigenvalue_hermitian(m):
    """`qubit._lowest_eigenvalues` of a Hermitian matrix (a float) or stack (an array)."""
    arr = np.asarray(m, dtype=complex)
    if not is_hermitian(arr, atol=ATOL_EIG):
        raise ValueError("min_eigenvalue_hermitian requires a Hermitian input")
    lowest = _lowest_eigenvalues(arr)
    return float(lowest) if arr.ndim == 2 else lowest


def element(elements: np.ndarray, x: int, y: int) -> np.ndarray:
    """The operator of outcome ``(x, y)`` in a (4, 2, 2) element array such as `build_povm` returns."""
    return elements[OUTCOMES4.index((x, y))]


# -- error models --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErrorModel:
    """Complex quasi-probability weights over the four flip patterns.

    ``weights[i]`` is the (quasi-)probability that the measurement flips the
    X outcome iff ``rx = 1`` and the Y outcome iff ``ry = 1``, where
    ``PATTERNS[i] = (rx, ry)``: a read-only vector that sums to 1.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = _checked_table(
            self.weights, 4, dtype=complex, total=1.0, tol=ATOL_ALGEBRA, what="error model"
        )
        object.__setattr__(self, "weights", weights)


def error_model_from_visibilities(vx: complex, vy: complex, c: complex) -> ErrorModel:
    """Weights ``H @ (1, vy, vx, c) / 4``, the inverse of `visibilities_from_error_model`."""
    return ErrorModel(weights=_hadamard([1.0, vy, vx, c]) / 4.0)


def visibilities_from_error_model(m: ErrorModel) -> tuple[complex, complex, complex]:
    """The signed sums ``(vx, vy, c)`` of the weights, rows of ``H @ weights``."""
    _, vy, vx, c = _hadamard(m.weights).tolist()
    return complex(vx), complex(vy), complex(c)


def eigenstate_probs_from_error_model(m: ErrorModel, axis: str) -> np.ndarray:
    """Outcome table, in ``OUTCOMES4`` order, for a +1 eigenstate of axis X or Y.

    Only the no-flip and flip marginals ``(1 +- v) / 2`` of that axis enter;
    a complex or out-of-range marginal is rejected.
    """
    if axis not in ("X", "Y"):
        raise ValueError("eigenstate predictions exist for axis X or Y only")
    total, vy, vx, _ = _hadamard(m.weights).tolist()
    v = vx if axis == "X" else vy
    marginals = []
    for name, value in (("no-flip", (total + v) / 2.0), ("flip", (total - v) / 2.0)):
        value = complex(value)
        if abs(value.imag) > 1e-10:
            raise ValueError(f"{name} marginal is complex: {value!r}")
        if not -ATOL_ALGEBRA <= value.real <= 1.0 + ATOL_ALGEBRA:
            raise ValueError(f"{name} marginal out of [0, 1]: {value.real!r}")
        marginals.append(min(max(value.real, 0.0), 1.0))
    keep_p, flip_p = marginals
    correct = [(x if axis == "X" else y) == +1 for x, y in OUTCOMES4]
    return _checked_table(np.where(correct, keep_p, flip_p) / 2.0, 4)


def pattern_quasiprobs(m: ErrorModel) -> np.ndarray:
    """``(1/4) * sum_s w(s) * w(s xor r)``, the XOR self-convolution of the weights."""
    return _checked_table(_self_convolution(m.weights), 4, dtype=complex)


def predicted_pattern_probs(m: ErrorModel) -> PatternStats:
    """`pattern_quasiprobs` as exact pattern probabilities; a complex entry is rejected."""
    e = _self_convolution(m.weights)
    for r, value in zip(PATTERNS, e.tolist()):
        if abs(value.imag) > 1e-10:
            raise ValueError(f"predicted pattern e{r} is complex: {value!r}")
    return PatternStats(e=np.maximum(e.real, 0.0), stderr=np.zeros(len(PATTERNS)))


def pattern_of(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """Flip pattern of a pair outcome: 0 where the singlet anti-correlation holds."""
    return (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)


# -- quasi-probabilities -------------------------------------------------------


def forward_map(kd: KDDistribution, m: ErrorModel) -> np.ndarray:
    """Outcome table, in ``OUTCOMES4`` order, of an error model acting on a quasi-probability.

    The weights' signed sums scale the moments ``H @ kd`` = (total, y, x,
    x*y), the correlation moment by ``-c`` (see the `kirkwood` docstring),
    and ``H`` maps them back; so it inverts `kirkwood.reconstruct_kd` at
    matching ``(vx, vy, c)``. A complex table is rejected.
    """
    vx, vy, c = visibilities_from_error_model(m)
    table = _hadamard(_hadamard(kd.entries) * np.array([1.0, vy, vx, -c])) / 4.0
    worst = int(np.argmax(np.abs(table.imag)))
    if abs(table[worst].imag) > 1e-10:
        raise ValueError(f"forward map gave a complex probability at {OUTCOMES4[worst]}: {table[worst]!r}")
    return _checked_table(table.real, 4)


def kd_pair_from_state(rho4) -> np.ndarray:
    """``<x1,x2|y1,y2><y1,y2|rho4|x1,x2>`` of a two-qubit state, in ``OUTCOMES16`` order."""
    ket_x = np.array([np.kron(eigenstate("X", x1), eigenstate("X", x2)) for x1, _, x2, _ in OUTCOMES16])
    ket_y = np.array([np.kron(eigenstate("Y", y1), eigenstate("Y", y2)) for _, y1, _, y2 in OUTCOMES16])
    rho_x = ket_x @ np.asarray(rho4, dtype=complex).T  # rho_x[o] = rho4 @ ket_x[o]
    entries = np.sum(ket_x.conj() * ket_y, axis=-1) * np.sum(ket_y.conj() * rho_x, axis=-1)
    return _checked_table(entries, 16, dtype=complex)


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    """One state, Bloch vector uniform in the unit ball: `_random_qubit_densities` at n = 1."""
    return _random_qubit_densities(rng, 1)[0]
