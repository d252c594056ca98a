"""Dense complex linear algebra for qubit operators, and the Bloch vectors of qubit states.

Operators are plain ``numpy`` arrays of ``complex128``, 2x2 matrices or
(..., 2, 2) stacks of them; a qubit state is its real Bloch vector ``r``,
the state ``(I + r . sigma) / 2``. Conventions are fixed once here:

* Pauli matrices in the Z-diagonal basis, ``X = [[0,1],[1,0]]``,
  ``Y = [[0,-i],[i,0]]``, ``Z = diag(1,-1)``; Bloch components run in
  ``AXES`` order.
* ``ATOL_ALGEBRA`` (1e-12) for exact algebraic identities,
  ``ATOL_EIG`` (1e-10) for eigenvalues and positivity slack.
"""

from __future__ import annotations

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_EIG = 1e-10

AXES = ("X", "Y", "Z")

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
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


def identity() -> np.ndarray:
    return np.eye(2, dtype=complex)


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for the given axis (Hermitian, traceless, squares to I)."""
    return _PAULI[ensure_axis(axis)].copy()


def bloch_vector(axis: str, value: int) -> np.ndarray:
    """Bloch vector of the ``value`` eigenstate of ``pauli(axis)``, as integers."""
    return ensure_sign(value) * np.array([a == ensure_axis(axis) for a in AXES], dtype=int)


def _lowest_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of a (..., 2, 2) stack, unchecked.

    The closed form ``(a+d)/2 - sqrt(((a-d)/2)^2 + |b|^2)``.
    """
    a = arr[..., 0, 0].real
    d = arr[..., 1, 1].real
    half_diff = 0.5 * (a - d)
    radius = np.hypot(half_diff, np.abs(arr[..., 0, 1]))
    return 0.5 * (a + d) - radius


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
        identity() + c[..., 0, :, :] * _PAULI["X"] + c[..., 1, :, :] * _PAULI["Y"]
        + c[..., 2, :, :] * _PAULI["Z"]
    )
