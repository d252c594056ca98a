"""Four-outcome joint X/Y measurements on a qubit.

The measurement family is parameterized by a visibility triple
``(vx, vy, vz)`` and consists of the four operators

    element(x, y) = (I + x*vx*X + y*vy*Y + x*y*vz*Z) / 4,   x, y in {+1, -1}.

``vx`` and ``vy`` are the resolutions seen by eigenstate inputs; ``vz`` has
no effect on eigenstate statistics and only shows up in the correlations
between the two outcomes. Positivity of the elements is equivalent to
``vx^2 + vy^2 + vz^2 <= 1``; on the boundary each element is half a rank-1
projector.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .qubit import (
    ATOL_ALGEBRA,
    _bloch_operators,
    _product,
    ensure_sign,
    identity,
    pauli,
)

# Fixed outcome orderings, +1 before -1; also the category order used by the
# inverse-CDF sampler in `simulate`.
OUTCOMES4: tuple[tuple[int, int], ...] = tuple(itertools.product((+1, -1), repeat=2))
OUTCOMES16: tuple[tuple[int, int, int, int], ...] = tuple(itertools.product((+1, -1), repeat=4))

# Flip patterns (rx, ry): rx = 0 means the X outcomes of a pair show the
# expected anti-correlation, rx = 1 means they do not; same for ry. Index i
# has bits (rx, ry), so pattern i carries the signs of outcome i:
# (-1)^rx = x and (-1)^ry = y.
PATTERNS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

# 4x4 Walsh-Hadamard transform, HADAMARD[k, i] = (-1)^popcount(k & i). Over
# PATTERNS or OUTCOMES4 order its rows are the characters 1, y, x and x*y.
HADAMARD = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])


def _float_table(table) -> np.ndarray:
    """``table`` as a float64 or complex128 array, without a copy when it already is one."""
    t = np.asarray(table)
    return t.astype(np.result_type(t.dtype, np.float64), copy=False)


def _hadamard(table) -> np.ndarray:
    """``HADAMARD @ table`` over the last axis: (total, y, x, x*y) signed sums.

    Each row is added left to right from +0.0, ``(((0.0 + a) ± b) ± c) ± d``,
    the order of every table sum, so digits depend on neither BLAS nor numpy's
    reduction order, and a complex table transforms part by part. The rows are
    built in place from the four columns, sharing partial sums.
    """
    t = _float_table(table)
    a, b, c, d = (t[..., k] for k in range(4))
    h = np.empty(t.shape, t.dtype)
    h0, h1, h2, h3 = (h[..., k] for k in range(4))
    # h0, h1 hold (0.0 + a) ± b until c and d are added
    np.add(a, 0.0, out=h0)
    np.add(a, 0.0, out=h1)
    h0 += b
    h1 -= b
    np.subtract(h0, c, out=h2)
    np.subtract(h1, c, out=h3)
    h2 -= d
    h3 += d
    h0 += c
    h0 += d
    h1 += c
    h1 -= d
    return h


def _checked_table(
    values,
    size: int | None = None,
    *,
    dtype=float,
    low: float = -np.inf,
    high: float = np.inf,
    total=None,
    tol: float = 1e-9,
    what: str = "table",
) -> np.ndarray:
    """The one validator of every table; returns its entries as a new read-only vector.

    ``values`` is a sequence of ``size`` numbers in the table's key order
    (``OUTCOMES4``, ``OUTCOMES16`` or ``PATTERNS``; with ``size`` None, any
    non-empty 1-D sequence). ``dtype=None`` keeps the element type, so
    integer counts stay integers. Entries must be finite with real parts in
    ``[low, high]``; with ``total`` given they must sum to it within ``tol``.
    """
    vec = np.array(values, dtype=dtype)
    size_ok = vec.ndim == 1 and vec.size > 0 and (size is None or vec.size == size)
    if not size_ok or vec.dtype.kind not in "iufc":
        raise ValueError(f"{what}: expected a 1-D table of {size or 'one or more'} numbers")
    # Plain Python on the few entries costs less than numpy's per-call overhead.
    vec_sum = sum(vec.tolist())
    # a NaN or infinite entry makes the sum non-finite
    if not cmath.isfinite(vec_sum):
        raise ValueError(f"{what}: entries must be finite, got {vec.tolist()}")
    reals = vec.real.tolist()
    if min(reals) < low or max(reals) > high:
        raise ValueError(f"{what}: entry out of [{low}, {high}] in {vec.tolist()}")
    if total is not None and abs(vec_sum - total) > tol:
        raise ValueError(f"{what}: entries sum to {vec_sum!r}, expected {total!r}")
    vec.flags.writeable = False
    return vec


class PositivityError(ValueError):
    """Visibility triple outside the positive measurement family."""


@dataclass(frozen=True)
class VisibilityTriple:
    """Measurement parameters (vx, vy, vz) with vx, vy in [0,1], vz in [-1,1]."""

    vx: float
    vy: float
    vz: float

    def __post_init__(self) -> None:
        for name, value in (("vx", self.vx), ("vy", self.vy), ("vz", self.vz)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.vx <= 1.0:
            raise ValueError(f"vx must lie in [0, 1], got {self.vx!r}")
        if not 0.0 <= self.vy <= 1.0:
            raise ValueError(f"vy must lie in [0, 1], got {self.vy!r}")
        if not -1.0 <= self.vz <= 1.0:
            raise ValueError(f"vz must lie in [-1, 1], got {self.vz!r}")
        if self.norm_squared > 1.0 + ATOL_ALGEBRA:
            raise PositivityError(
                f"vx^2 + vy^2 + vz^2 = {self.norm_squared!r} exceeds 1; "
                "no positive measurement with these visibilities exists"
            )

    @property
    def norm_squared(self) -> float:
        return self.vx ** 2 + self.vy ** 2 + self.vz ** 2


def build_povm(v: VisibilityTriple) -> np.ndarray:
    """The four-outcome joint measurement of a visibility triple, as a read-only complex (4, 2, 2) array.

    Element ``k`` is the operator of outcome ``OUTCOMES4[k]``. The triple is
    positive already: ``VisibilityTriple`` raises ``PositivityError`` when
    ``vx^2 + vy^2 + vz^2 > 1``, checked algebraically, each element's
    smallest eigenvalue being ``(1 - sqrt(vx^2+vy^2+vz^2)) / 4``.
    """
    elements = _family_elements([v.vx, v.vy, v.vz])
    elements.flags.writeable = False
    return elements


def _family_elements(v) -> np.ndarray:
    """Elements of the family for a (..., 3) stack of (vx, vy, vz), as (..., 4, 2, 2).

    The four elements run in ``OUTCOMES4`` order. Nothing is validated, so a
    check can build elements for any triple, positive or not.
    """
    signs = np.array([(x, y, x * y) for x, y in OUTCOMES4], dtype=float)
    return _bloch_operators(np.asarray(v, dtype=float)[..., None, :] * signs) / 4.0


def outcome_table(elements: np.ndarray, r) -> np.ndarray:
    """Outcome table ``Tr(E rho)``, in ``OUTCOMES4`` order, on the qubit state of Bloch vector ``r``.

    ``elements`` is a (4, 2, 2) array as `build_povm` returns it, and
    ``rho = (I + r . sigma) / 2``. The trace is written entry by entry and
    added left to right, ``e00 (1 + rz)/2 + e11 (1 - rz)/2 + rx Re e01 - ry Im e01``,
    so a Z eigenstate reads ``e00`` or ``e11`` exactly and an X or Y
    eigenstate ``(Tr E +- Tr E sigma) / 2`` to the bit. ``r`` is not checked
    to lie in the unit ball; the read-only table's entries must be finite.
    """
    rx, ry, rz = r
    e00, e01, e11 = elements[:, 0, 0].real, elements[:, 0, 1], elements[:, 1, 1].real
    table = e00 * (1 + rz) / 2 + e11 * (1 - rz) / 2 + rx * e01.real - ry * e01.imag
    return _checked_table(table, 4, what="outcome table")


def exact_pattern_probs(v: VisibilityTriple) -> np.ndarray:
    """Exact flip-pattern probabilities for identical measurements on a singlet pair.

    A read-only vector in ``PATTERNS`` order, per outcome combination, so
    it sums to 1/4: ``e = HADAMARD @ (1, vy^2, vx^2, -vz^2) / 16``, in
    closed form

        e(0,0) = (1 + vx^2 + vy^2 - vz^2) / 16
        e(0,1) = (1 + vx^2 - vy^2 + vz^2) / 16
        e(1,0) = (1 - vx^2 + vy^2 + vz^2) / 16
        e(1,1) = (1 - vx^2 - vy^2 - vz^2) / 16
    """
    e = _exact_patterns([v.vx, v.vy, v.vz])
    e.flags.writeable = False
    return e


def _exact_patterns(v) -> np.ndarray:
    """`exact_pattern_probs` for a (..., 3) stack of (vx, vy, vz), unchecked, as (..., 4)."""
    squares = np.asarray(v, dtype=float) ** 2
    ones = np.ones(squares.shape[:-1])
    return _hadamard(np.stack([ones, squares[..., 1], squares[..., 0], -squares[..., 2]], axis=-1)) / 16.0


def ideal_operator(sx: int, sy: int) -> np.ndarray:
    """Ordered product of the X and Y projectors, ``(I + sx*X)(I + sy*Y) / 4``.

    This is the (non-Hermitian) vz = i member of the measurement family; its
    traces against states give the Kirkwood-Dirac quasi-probabilities in
    `kirkwood`. The Hermiticity defect is ``op - op^dagger = i*sx*sy*Z/2``.
    The product is written entry by entry (`qubit._product`); its entries
    are sums of products of 0, +-1 and +-i, so they are exact.
    """
    sx = ensure_sign(sx, "sx")
    sy = ensure_sign(sy, "sy")
    eye = identity()
    return _product(eye + sx * pauli("X"), eye + sy * pauli("Y")) / 4.0
