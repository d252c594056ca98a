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
from typing import Iterator, Mapping

import numpy as np

from .qubit import (
    ATOL_ALGEBRA,
    _bloch_operators,
    ensure_density_matrix,
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

_INDEX = {keys: {k: i for i, k in enumerate(keys)} for keys in (OUTCOMES4, OUTCOMES16, PATTERNS)}


def _float_table(table) -> np.ndarray:
    """``table`` as a float64 or complex128 array, without a copy when it already is one."""
    t = np.asarray(table)
    return t.astype(np.result_type(t.dtype, np.float64), copy=False)


def _sum4(*terms, out=None):
    """The sum of two or four terms in the order ``np.sum`` adds them, into ``out`` if given.

    The order depends on the dtype only. Real terms, and two complex terms,
    are added left to right, ``((0.0 + a) + b) + ...``. Four complex terms
    are added pairwise, ``(0.0 + (a + b)) + (c + d)``.
    """
    if len(terms) == 4 and np.iscomplexobj(terms[0]):
        a, b, c, d = terms
        out = np.add(a, b, out=out)
        out += 0.0
        out += c + d
        return out
    out = np.add(terms[0], 0.0, out=out)
    for term in terms[1:]:
        out += term
    return out


def _hadamard(table) -> np.ndarray:
    """``HADAMARD @ table`` over the last axis: (total, y, x, x*y) signed sums.

    Bit for bit ``np.sum(HADAMARD * table[..., None, :], axis=-1)``, so
    report digits never depend on how a BLAS matrix-vector product
    associates: each row is added in `_sum4`'s order. The rows are built in
    place from the four columns, sharing partial sums, without a
    ``(..., 4, 4)`` temporary.
    """
    t = _float_table(table)
    a, b, c, d = (t[..., k] for k in range(4))
    h = np.empty(t.shape, t.dtype)
    h0, h1, h2, h3 = (h[..., k] for k in range(4))
    if np.iscomplexobj(t):
        # h0, h1 hold 0.0 + (a ± b) until the halves c ± d are added
        np.add(a, b, out=h0)
        np.subtract(a, b, out=h1)
        h0 += 0.0
        h1 += 0.0
        cd, c_d = c + d, c - d
        np.subtract(h0, cd, out=h2)
        np.subtract(h1, c_d, out=h3)
        h0 += cd
        h1 += c_d
    else:
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
    keys=None,
    *,
    dtype=float,
    low: float = -np.inf,
    high: float = np.inf,
    total=None,
    tol: float = 1e-9,
    what: str = "table",
) -> np.ndarray:
    """The one validator of every table; returns its entries as a new vector.

    ``values`` is a mapping over exactly ``keys`` or a sequence in ``keys``
    order (with ``keys`` None, any non-empty 1-D sequence). ``dtype=None``
    keeps the element type, so integer counts stay integers. Entries must be
    finite with real parts in ``[low, high]``; with ``total`` given they must
    sum to it within ``tol``.
    """
    if not isinstance(values, np.ndarray) and isinstance(values, Mapping):
        if keys is None or set(values) != set(keys):
            raise ValueError(f"{what}: keys must be exactly {keys}")
        values = values.array if isinstance(values, Table) else [values[k] for k in keys]
    vec = np.array(values, dtype=dtype)
    size_ok = vec.ndim == 1 and vec.size > 0 and (keys is None or vec.size == len(keys))
    if not size_ok or vec.dtype.kind not in "iufc":
        count = len(keys) if keys else "one or more"
        raise ValueError(f"{what}: expected a 1-D table of {count} numbers")
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
    return vec


class Table(Mapping):
    """Read-only mapping over a fixed key order, backed by one numpy vector.

    ``keys`` is ``OUTCOMES4``, ``OUTCOMES16`` or ``PATTERNS``; ``array``
    holds the entries in that order for vector code, and ``table[key]``
    returns the same entry as a plain Python number. ``checks`` go to the
    validator.
    """

    def __init__(self, keys, values, **checks):
        self._index = _INDEX[keys]
        self.array = _checked_table(values, keys, **checks)
        self.array.flags.writeable = False
        self._entries = self.array.tolist()

    def __getitem__(self, key):
        return self._entries[self._index[key]]

    def __iter__(self) -> Iterator:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"Table({dict(self)!r})"


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


@dataclass(frozen=True)
class PatternStats:
    """Per-outcome probabilities of the four pair flip patterns.

    ``e[(rx, ry)]`` is the probability of one specific outcome combination
    showing pattern ``(rx, ry)``; since four outcome combinations share each
    pattern, the four entries sum to 1/4. ``total_shots`` is 0 for exact
    tables, in which case every stderr is 0. Both fields become `Table`s.
    """

    e: Mapping[tuple[int, int], float]
    stderr: Mapping[tuple[int, int], float]
    total_shots: int

    def __post_init__(self) -> None:
        if self.total_shots < 0:
            raise ValueError("total_shots must be non-negative")
        # Exact tables are nonnegative by construction; sampled tables may
        # dip below zero only through source-noise correction.
        floor = -ATOL_ALGEBRA if self.total_shots == 0 else -0.25
        e = Table(
            PATTERNS, self.e, low=floor, high=1.0 + ATOL_ALGEBRA, total=0.25, what="patterns"
        )
        object.__setattr__(self, "e", e)
        stderr = Table(PATTERNS, self.stderr, low=0.0, what="pattern stderr")
        object.__setattr__(self, "stderr", stderr)


@dataclass(frozen=True)
class JointPovm:
    """The four measurement operators as one read-only complex (4, 2, 2) array.

    ``elements[k]`` is the operator of outcome ``OUTCOMES4[k]``; the shape is
    checked once, here, and ``element(x, y)`` picks one operator by outcome.
    """

    visibilities: VisibilityTriple
    elements: np.ndarray

    def __post_init__(self) -> None:
        elements = np.array(self.elements, dtype=complex)
        if elements.shape != (4, 2, 2):
            raise ValueError(f"measurement elements must be (4, 2, 2), got {elements.shape}")
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    def element(self, x: int, y: int) -> np.ndarray:
        return self.elements[_INDEX[OUTCOMES4][(ensure_sign(x, "x"), ensure_sign(y, "y"))]]


def build_povm(v: VisibilityTriple) -> JointPovm:
    """Construct the four-outcome joint measurement for a visibility triple.

    Raises ``PositivityError`` (via ``VisibilityTriple``) when
    ``vx^2 + vy^2 + vz^2 > 1``; positivity is checked algebraically, each
    element's smallest eigenvalue being ``(1 - sqrt(vx^2+vy^2+vz^2)) / 4``.
    """
    if not isinstance(v, VisibilityTriple):
        v = VisibilityTriple(*v)
    return JointPovm(visibilities=v, elements=_family_elements([v.vx, v.vy, v.vz]))


def _family_elements(v) -> np.ndarray:
    """Elements of the family for a (..., 3) stack of (vx, vy, vz), as (..., 4, 2, 2).

    The four elements run in ``OUTCOMES4`` order. Nothing is validated, so a
    check can build elements for any triple, positive or not.
    """
    signs = np.array([(x, y, x * y) for x, y in OUTCOMES4], dtype=float)
    return _bloch_operators(np.asarray(v, dtype=float)[..., None, :] * signs) / 4.0


def _real_probs(values, keys, what: str) -> Table:
    values = np.array(values)
    worst = np.max(np.abs(values.imag))
    if worst > ATOL_ALGEBRA:
        raise ValueError(f"{what} have a non-negligible imaginary part: {worst!r}")
    slack = ATOL_ALGEBRA
    return Table(keys, values.real, low=-slack, high=1.0 + slack, total=1.0, tol=slack, what=what)


def outcome_probs(povm: JointPovm, rho) -> Table:
    """Outcome probabilities ``Tr(element(x,y) @ rho)`` for a qubit state."""
    rho = ensure_density_matrix(rho, dim=2)
    values = np.trace(povm.elements @ rho, axis1=1, axis2=2)
    return _real_probs(values, OUTCOMES4, "outcome probabilities")


def pair_outcome_probs(povm1: JointPovm, povm2: JointPovm, rho4) -> Table:
    """Joint outcome probabilities for independent measurements on a pair.

    Entry ``(x1, y1, x2, y2)`` is ``Tr((element1(x1,y1) (x) element2(x2,y2)) @ rho4)``.
    The 16 Kronecker products are one broadcast product, entry for entry
    what ``np.kron`` computes, so the table equals the per-element
    ``trace_product(tensor(...), rho4)`` bit for bit. The two measurements
    may differ; the pattern-based estimators in `analysis` assume they are
    identical.
    """
    rho4 = ensure_density_matrix(rho4, dim=4)
    e1, e2 = povm1.elements, povm2.elements
    # axes (o1, o2, i1, i2, j1, j2): kron row i1*2+i2, column j1*2+j2, outcome o1*4+o2
    kron = (e1[:, None, :, None, :, None] * e2[None, :, None, :, None, :]).reshape(16, 4, 4)
    values = np.trace(kron @ rho4, axis1=1, axis2=2)
    return _real_probs(values, OUTCOMES16, "pair probabilities")


def exact_pattern_probs(v: VisibilityTriple) -> PatternStats:
    """Exact flip-pattern probabilities for identical measurements on a singlet pair.

    ``e = HADAMARD @ (1, vy^2, vx^2, -vz^2) / 16``; in closed form (per
    outcome combination):

        e(0,0) = (1 + vx^2 + vy^2 - vz^2) / 16
        e(0,1) = (1 + vx^2 - vy^2 + vz^2) / 16
        e(1,0) = (1 - vx^2 + vy^2 + vz^2) / 16
        e(1,1) = (1 - vx^2 - vy^2 - vz^2) / 16
    """
    if not isinstance(v, VisibilityTriple):
        v = VisibilityTriple(*v)
    e = _exact_patterns([v.vx, v.vy, v.vz])
    return PatternStats(e=e, stderr=np.zeros(4), total_shots=0)


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
    """
    sx = ensure_sign(sx, "sx")
    sy = ensure_sign(sy, "sy")
    eye = identity(2)
    return (eye + sx * pauli("X")) @ (eye + sy * pauli("Y")) / 4.0
