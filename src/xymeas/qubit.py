"""Dense complex linear algebra for one- and two-qubit operators.

Everything downstream works with plain ``numpy`` arrays of ``complex128``:
state vectors of length 2 or 4 and square operator matrices of the same
dimensions. Conventions are fixed once here:

* Pauli matrices in the Z-diagonal basis, ``X = [[0,1],[1,0]]``,
  ``Y = [[0,-i],[i,0]]``, ``Z = diag(1,-1)``.
* Eigenstates and the singlet carry a global phase such that the first
  nonzero amplitude is real and positive.
* ``ATOL_ALGEBRA`` (1e-12) for exact algebraic identities,
  ``ATOL_EIG`` (1e-10) for eigensolves and positivity slack.
"""

from __future__ import annotations

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_EIG = 1e-10

AXES = ("X", "Y", "Z")

_SQRT2 = np.sqrt(2.0)

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_EIGENSTATE = {
    ("Z", +1): np.array([1, 0], dtype=complex),
    ("Z", -1): np.array([0, 1], dtype=complex),
    ("X", +1): np.array([1, 1], dtype=complex) / _SQRT2,
    ("X", -1): np.array([1, -1], dtype=complex) / _SQRT2,
    ("Y", +1): np.array([1, 1j], dtype=complex) / _SQRT2,
    ("Y", -1): np.array([1, -1j], dtype=complex) / _SQRT2,
}


def ensure_axis(axis: str) -> str:
    """Normalize an axis label to one of 'X', 'Y', 'Z'."""
    label = str(axis).upper()
    if label not in AXES:
        raise ValueError(f"unknown axis {axis!r}, expected one of {AXES}")
    return label


def ensure_sign(value: int, what: str = "value") -> int:
    if value not in (+1, -1):
        raise ValueError(f"{what} must be +1 or -1, got {value!r}")
    return int(value)


def _as_complex_array(a, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def identity(dim: int = 2) -> np.ndarray:
    if dim not in (2, 4):
        raise ValueError(f"dimension must be 2 or 4, got {dim}")
    return np.eye(dim, dtype=complex)


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for the given axis (Hermitian, traceless, squares to I)."""
    return _PAULI[ensure_axis(axis)].copy()


def eigenstate(axis: str, value: int) -> np.ndarray:
    """Normalized eigenvector of ``pauli(axis)`` with eigenvalue ``value``."""
    return _EIGENSTATE[(ensure_axis(axis), ensure_sign(value))].copy()


def singlet() -> np.ndarray:
    """Two-qubit state with all three pair correlations equal to -1."""
    return np.array([0, 1, -1, 0], dtype=complex) / _SQRT2


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
    if np.min(_lowest_eigenvalues(arr), initial=0.0) < -ATOL_EIG:
        raise ValueError("density matrix is not positive semidefinite")
    return arr


def _lowest_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of a (..., d, d) stack, unchecked.

    The 2x2 case uses the closed form ``(a+d)/2 - sqrt(((a-d)/2)^2 + |b|^2)``;
    the 4x4 case a dense Hermitian eigensolve.
    """
    if arr.shape[-1] == 2:
        a = arr[..., 0, 0].real
        d = arr[..., 1, 1].real
        half_diff = 0.5 * (a - d)
        radius = np.hypot(half_diff, np.abs(arr[..., 0, 1]))
        return 0.5 * (a + d) - radius
    return np.linalg.eigvalsh(arr)[..., 0]


def _product(a, b) -> np.ndarray:
    """2x2 matrix product without BLAS: entry ``(i, j)`` is ``a[i,0] b[0,j] + a[i,1] b[1,j]``."""
    a, b = np.asarray(a), np.asarray(b)
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1]


def _bloch_operators(coeffs) -> np.ndarray:
    """``I + c0*X + c1*Y + c2*Z`` for each row ``c`` of a (..., 3) stack, as (..., 2, 2).

    The terms are added left to right, so the result is bit for bit the
    one-matrix expression.
    """
    c = np.asarray(coeffs)[..., None, None]
    return (
        identity(2) + c[..., 0, :, :] * _PAULI["X"] + c[..., 1, :, :] * _PAULI["Y"]
        + c[..., 2, :, :] * _PAULI["Z"]
    )
