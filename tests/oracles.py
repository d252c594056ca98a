"""Per-record reference functions that only the tests call.

The commands work on whole tables and stacks; these are the one-record
forms the tests state identities with. Each wraps the library's own
arithmetic (`povm._hadamard`, `checks._self_convolution`,
`checks._random_bloch_vectors`, `qubit._lowest_eigenvalues`,
`qubit._bloch_operators`, `povm._checked_table`) or plain numpy
(``np.kron``, ``np.trace``), and never adds up a sum of its own that the
library also computes, so a test through an oracle still tests the sums the
commands run, each added left to right from +0.0. The commands hold a
measurement as its real Bloch table (`povm.build_povm`); `family_operators`
gives the complex (4, 2, 2) operators of a triple, as `povm._family_elements`
builds them for the ``build-povm`` dump and `verify`, and `element` picks
one operator out of that stack.

The commands hold a qubit state as its Bloch vector. The ket and
density-matrix forms are here as the independent references: the X, Y and
Z eigenstate kets, the singlet ket, ``|psi><psi|``, the density-matrix
validator (2x2 and 4x4, the 4x4 case by a dense eigensolve), and the
quasi-probability ``<x|y><y|rho|x>`` contracted from the kets, which
`kirkwood.kd_from_bloch` reads off the Bloch vector instead. The pair
quasi-probability, which no command computes, is plain numpy over
``np.kron`` product kets. The Werner state and the pair table as operator
traces, ``Tr((E1 (x) E2) rho4)``, are the references that
`simulate.werner_table` reads off the Bloch table's rows instead; they are
matrix products, so their digits depend on the BLAS kernel. `pattern_of`
states a pair outcome's flip pattern from its four signs, the rule the bit
arithmetic of `analysis._PATTERN_INDEX16` encodes. Each keeps only the
validation some test checks.
"""

from dataclasses import dataclass

import numpy as np

from xymeas.checks import _random_bloch_vectors, _self_convolution
from xymeas.kirkwood import KDDistribution
from xymeas.povm import (
    OUTCOMES4, OUTCOMES16, PATTERNS, VisibilityTriple, _checked_table, _family_elements, _hadamard,
)
from xymeas.qubit import ATOL_ALGEBRA, ATOL_EIG, _bloch_operators, _lowest_eigenvalues, ensure_axis, ensure_sign

# -- qubit states as kets and density matrices ---------------------------------

_SQRT2 = np.sqrt(2.0)

# global phase: the first nonzero amplitude is real and positive
_EIGENSTATE = {
    ("Z", +1): np.array([1, 0], dtype=complex),
    ("Z", -1): np.array([0, 1], dtype=complex),
    ("X", +1): np.array([1, 1], dtype=complex) / _SQRT2,
    ("X", -1): np.array([1, -1], dtype=complex) / _SQRT2,
    ("Y", +1): np.array([1, 1j], dtype=complex) / _SQRT2,
    ("Y", -1): np.array([1, -1j], dtype=complex) / _SQRT2,
}


def eigenstate(axis: str, value: int) -> np.ndarray:
    """Normalized eigenvector of ``pauli(axis)`` with eigenvalue ``value``."""
    return _EIGENSTATE[(ensure_axis(axis), ensure_sign(value))].copy()


def singlet() -> np.ndarray:
    """Two-qubit state with all three pair correlations equal to -1."""
    return np.array([0, 1, -1, 0], dtype=complex) / _SQRT2


def _as_complex_array(a, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def ensure_state_vector(psi) -> np.ndarray:
    arr = _as_complex_array(psi, "state")
    if arr.ndim != 1 or arr.shape[0] not in (2, 4):
        raise ValueError(f"state must be a length-2 or length-4 vector, got shape {arr.shape}")
    norm_sq = sum((z.real * z.real + z.imag * z.imag for z in arr.tolist()), 0.0)
    if abs(norm_sq - 1.0) > ATOL_ALGEBRA:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
    return arr


def density(psi) -> np.ndarray:
    """Rank-1 density matrix ``|psi><psi|`` of a normalized state vector."""
    arr = ensure_state_vector(psi)
    return np.outer(arr, arr.conj())


def bloch_density(r) -> np.ndarray:
    """Density matrix ``(I + r . sigma) / 2`` of a Bloch vector, or of each of a (..., 3) stack."""
    return _bloch_operators(r) / 2.0


def random_bloch_vector(rng: np.random.Generator) -> np.ndarray:
    """One Bloch vector uniform in the unit ball: `checks._random_bloch_vectors` at n = 1."""
    return _random_bloch_vectors(rng, 1)[0]


def _lowest(arr: np.ndarray) -> np.ndarray:
    """`qubit._lowest_eigenvalues` of a (..., 2, 2) stack; a dense eigensolve of a (..., 4, 4) one."""
    return _lowest_eigenvalues(arr) if arr.shape[-1] == 2 else np.linalg.eigvalsh(arr)[..., 0]


def ensure_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix, or each of a (..., d, d) stack: Hermitian, unit trace, PSD.

    A stack is rejected as a whole, its message quoting the worst trace.
    """
    arr = _as_complex_array(rho, "density matrix")
    if arr.ndim < 2 or arr.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"density matrix must be a 2x2 or 4x4 matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[-1] != dim:
        raise ValueError(f"density matrix must be {dim}x{dim}, got shape {arr.shape}")
    if np.max(np.abs(arr - arr.conj().swapaxes(-1, -2)), initial=0.0) > ATOL_EIG:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(arr, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if np.max(off, initial=0.0) > ATOL_EIG:
        worst = complex(np.ravel(tr)[np.argmax(off)])
        raise ValueError(f"density matrix does not have unit trace: trace = {worst!r}")
    if np.min(_lowest(arr), initial=0.0) < -ATOL_EIG:
        raise ValueError("density matrix is not positive semidefinite")
    return arr


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
    """Smallest eigenvalue of a Hermitian matrix (a float) or stack (an array), 2x2 or 4x4."""
    arr = np.asarray(m, dtype=complex)
    if not is_hermitian(arr, atol=ATOL_EIG):
        raise ValueError("min_eigenvalue_hermitian requires a Hermitian input")
    lowest = _lowest(arr)
    return float(lowest) if arr.ndim == 2 else lowest


def family_operators(v: VisibilityTriple) -> np.ndarray:
    """The complex (4, 2, 2) operators of a triple, in ``OUTCOMES4`` order: `povm._family_elements`."""
    return _family_elements([v.vx, v.vy, v.vz])


def element(elements: np.ndarray, x: int, y: int) -> np.ndarray:
    """The operator of outcome ``(x, y)`` in a (4, 2, 2) stack such as `family_operators` returns."""
    return elements[OUTCOMES4.index((x, y))]


def _real_probs(values, what: str) -> np.ndarray:
    values = np.array(values)
    worst = np.max(np.abs(values.imag))
    if worst > ATOL_ALGEBRA:
        raise ValueError(f"{what} have a non-negligible imaginary part: {worst!r}")
    slack = ATOL_ALGEBRA
    return _checked_table(values.real, low=-slack, high=1.0 + slack, total=1.0, tol=slack, what=what)


def pair_outcome_probs(e1: np.ndarray, e2: np.ndarray, rho4) -> np.ndarray:
    """Joint outcome probabilities for independent measurements on a pair, in ``OUTCOMES16`` order.

    ``e1`` and ``e2`` are (4, 2, 2) stacks as `family_operators` returns
    them; entry ``(x1, y1, x2, y2)`` is ``Tr((e1[k1] (x) e2[k2]) @ rho4)``
    with ``k1``, ``k2`` the ``OUTCOMES4`` indices of ``(x1, y1)`` and ``(x2, y2)``.
    The 16 Kronecker products are one broadcast product, entry for entry
    what ``np.kron`` computes, so the table equals the per-element
    ``np.trace(np.kron(e1[k1], e2[k2]) @ rho4)`` bit for bit. The two
    measurements may differ.
    """
    rho4 = ensure_density_matrix(rho4, dim=4)
    # axes (o1, o2, i1, i2, j1, j2): kron row i1*2+i2, column j1*2+j2, outcome o1*4+o2
    kron = (e1[:, None, :, None, :, None] * e2[None, :, None, :, None, :]).reshape(16, 4, 4)
    values = np.trace(kron @ rho4, axis1=1, axis2=2)
    return _real_probs(values, "pair probabilities")


def werner_state(p: float) -> np.ndarray:
    """Isotropic mixture ``p * singlet + (1 - p) * I/4`` of the pair source, as a 4x4 matrix."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {p!r}")
    return p * density(singlet()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


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


def predicted_pattern_probs(m: ErrorModel) -> np.ndarray:
    """`pattern_quasiprobs` as exact pattern probabilities, summing to 1/4; a complex entry is rejected."""
    e = _self_convolution(m.weights)
    for r, value in zip(PATTERNS, e.tolist()):
        if abs(value.imag) > 1e-10:
            raise ValueError(f"predicted pattern e{r} is complex: {value!r}")
    return _checked_table(np.maximum(e.real, 0.0), 4, total=0.25, what="patterns")


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


# |x> and |y> of each outcome (x, y), in OUTCOMES4 order
_KET_X = np.array([eigenstate("X", x) for x, _ in OUTCOMES4])
_KET_Y = np.array([eigenstate("Y", y) for _, y in OUTCOMES4])


def kd_from_state(rho) -> KDDistribution:
    """Quasi-probability ``<x|y><y|rho|x>`` of a qubit density matrix, contracted from the kets."""
    rho = ensure_density_matrix(rho, dim=2)
    rho_x = _KET_X @ rho.T  # rho_x[o] = rho @ ket_x[o]
    entries = np.sum(_KET_X.conj() * _KET_Y, axis=-1) * np.sum(_KET_Y.conj() * rho_x, axis=-1)
    return KDDistribution(entries=entries)


def kd_pair_from_state(rho4) -> np.ndarray:
    """``<x1,x2|y1,y2><y1,y2|rho4|x1,x2>`` of a two-qubit state, in ``OUTCOMES16`` order."""
    ket_x = np.array([np.kron(eigenstate("X", x1), eigenstate("X", x2)) for x1, _, x2, _ in OUTCOMES16])
    ket_y = np.array([np.kron(eigenstate("Y", y1), eigenstate("Y", y2)) for _, y1, _, y2 in OUTCOMES16])
    rho_x = ket_x @ np.asarray(rho4, dtype=complex).T  # rho_x[o] = rho4 @ ket_x[o]
    entries = np.sum(ket_x.conj() * ket_y, axis=-1) * np.sum(ket_y.conj() * rho_x, axis=-1)
    return _checked_table(entries, 16, dtype=complex)
