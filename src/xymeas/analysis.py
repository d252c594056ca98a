"""Estimation pipeline: visibilities, pattern probabilities, and the error correlation.

Eigenstate runs determine the resolutions ``vx`` and ``vy``. Pair runs on a
singlet source determine the flip-pattern probabilities ``e(rx, ry)``. Every
table is a vector in the fixed order of `povm` (``PATTERNS`` index bits
``(rx, ry)``), and every signed sum over four patterns is a row of the
Walsh-Hadamard transform ``H = povm.HADAMARD`` (rows: total, y, x, x*y):

    4 * H e = (1, vy^2, vx^2, c^2)      pair-pattern probabilities
        H w = (1, vy, vx, c)            error-model weights

that is,

    vx^2 = 4 * (e(0,0) + e(0,1) - e(1,0) - e(1,1))
    vy^2 = 4 * (e(0,0) - e(0,1) + e(1,0) - e(1,1))
    c^2  = 4 * (e(0,0) - e(0,1) - e(1,0) + e(1,1))

Pattern probabilities are the XOR self-convolution of the weights,
``e(r) = (1/4) * sum_s w(s) * w(s xor r)``, hence ``4 * H e = (H w)^2``.

For any measurement in the positive family, ``c^2 = -vz^2 <= 0``: the error
correlation is imaginary, ``c = i*vz`` up to a sign that pair data cannot
resolve. Classical measurement-error models (real non-negative flip weights)
instead force ``c^2 >= 0``; equivalently, the statistic
``s = e(0,1) + e(1,0) - e(0,0) - e(1,1)`` is ``vz^2 / 4 >= 0`` for every
quantum measurement and ``<= 0`` for every classical model.

An eigenstate run has one estimator and a pair run two: `estimate_visibility`
gives ``vx`` or ``vy`` from an eigenstate run of that axis, and
`pattern_estimates` ``vx^2``, ``vy^2`` and ``c^2``, rows of ``H``, from a pair
run's patterns. `pattern_cells` gives the pattern probabilities ``e(r)``
themselves, each from the contrast ``2 n_r - N`` of its class against the
other three.
Each estimate is one `Estimate`, value and standard error; `is_classical` is
the one verdict on ``c^2``.

All three read an integer signed count ``row`` of ``N`` shots (`_contrast`),
so ``m = row / N`` is correctly rounded. One stderr rule serves a
visibility, a pattern row and a pattern cell alike: the multinomial
``sqrt((1 - m^2) / N)``, except where every shot fell on one side, whose
empty side gets the rule-of-three ``3/N`` (stderr ``6/N``, never 0). A cell's
fraction ``n_r / N`` has half its contrast's stderr, so an empty or a full
class reads ``3/N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm import PATTERNS, _float_table, _hadamard
from .qubit import ATOL_ALGEBRA
from .simulate import OutcomeCounts4, PairCounts16

# Verdict threshold: an estimate within 3 standard errors of the classical
# region counts as consistent with a classical error model.
CLASSICAL_SIGMA = 3.0

# The smallest Werner parameter a source-noise correction divides by. A
# corrected pattern cell carries the rounding of f/4 - (1 - p)/16, a few ulp
# of 1/4, divided by p; down to this p the four cells still sum to 1/4, and
# their rows 4 H e still match the pair rows, within 1e-9. Over 15000 random
# pair records of 1 to 1e9 shots the worst row gap was 2.3e-10 at p = 1e-6
# and 1.9e-9 at p = 1e-7.
MIN_WERNER_P = 1e-6


@dataclass(frozen=True)
class Estimate:
    """A finite estimate with its non-negative standard error."""

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or not np.isfinite(self.stderr):
            raise ValueError("estimate must be finite")
        if self.stderr < 0.0:
            raise ValueError("stderr must be non-negative")


def _contrast(row: int, total: int) -> Estimate:
    """``m = row / total`` of a signed count of ``total`` shots; stderr ``6/total`` at ``|row| = total``."""
    m = row / total
    return Estimate(m, 6.0 / total if abs(row) == total else math.sqrt((1.0 - m * m) / total))


def estimate_visibility(counts: OutcomeCounts4) -> Estimate:
    """Resolution of the input axis from an X- or Y-eigenstate run.

    ``input_value * (n(+1) - n(-1)) / total`` on the axis the record names
    (``counts.input_axis``): the x or y row of ``H @ counts`` over the shot
    count, with the stderr of `_contrast`.
    """
    total, y, x, _ = map(int, _hadamard(counts.counts).tolist())
    m = _contrast(x if counts.input_axis == "X" else y, total)
    # 0.0 - m, so a balanced run at input -1 reads 0.0, not -0.0
    return m if counts.input_value == +1 else Estimate(0.0 - m.value, m.stderr)


# Pattern index of each OUTCOMES16 entry k, the pair of OUTCOMES4 outcomes k >> 2 and
# k & 3: an OUTCOMES4 index has one bit per sign, and a pattern bit is 0 where they differ.
_PATTERN_INDEX16 = np.array([(k >> 2) ^ (k & 3) ^ 3 for k in range(16)])


def _pattern_classes(counts: PairCounts16) -> list[int]:
    """Shot counts of the four pattern classes of a pair run, in ``PATTERNS`` order."""
    classes = np.bincount(_PATTERN_INDEX16, weights=counts.counts, minlength=len(PATTERNS))
    return list(map(int, classes.tolist()))


def pattern_estimates(counts: PairCounts16, p: float = 1.0) -> tuple[Estimate, ...]:
    """``vx^2``, ``vy^2`` and ``c^2`` of a pair run, rows of ``4 * H e``.

    Each is a `_contrast` of the pattern class counts over the source's
    Werner parameter ``p``, as `pattern_cells` divides a cell's contrast.
    The positive family gives ``c^2 = -vz^2`` exactly; a significantly
    negative estimate is the non-classical signature (see `is_classical`).
    Only the square is observable, so no sign of the correlation is reported.
    """
    _check_werner_p(p)
    total, y, x, xy = map(int, _hadamard(_pattern_classes(counts)).tolist())
    contrasts = (_contrast(row, total) for row in (x, y, xy))
    return tuple(Estimate(m.value / p, m.stderr / p) for m in contrasts)


def pattern_cells(counts: PairCounts16, p: float = 1.0) -> tuple[Estimate, ...]:
    """The pattern probabilities ``e(r)`` of a pair run, in ``PATTERNS`` order.

    Four outcome combinations share each pattern, so ``e(r)`` is the
    fraction ``f = n_r / N`` of the shots in class ``r``, over 4. ``f`` has
    half the stderr of the `_contrast` ``2 n_r - N`` of the class against
    the others: ``sqrt(f (1 - f) / N)``, or ``3/N`` where the class holds
    none or all of the shots. A source with Werner parameter ``p`` mixes the
    singlet table with the uniform 1/16 background, ``e_noisy = p * e_pure +
    (1 - p) / 16``, and the cell undoes it, dividing its contrast and stderr
    by ``p``. Model-dependent: valid only for isotropic noise with a
    correctly known ``p``, at least ``MIN_WERNER_P``. A corrected cell may
    fall below 0 or above 1/4 where the true probability is near either end.
    """
    _check_werner_p(p)
    total = counts.total
    cells = []
    for n in _pattern_classes(counts):
        # e = f / 4, and f has half its contrast's stderr
        stderr = _contrast(2 * n - total, total).stderr / 8.0
        cells.append(Estimate((n / total / 4.0 - (1.0 - p) / 16.0) / p, stderr / p))
    return tuple(cells)


def is_classical(c2: Estimate) -> bool:
    """Whether ``c^2`` lies within ``CLASSICAL_SIGMA`` standard errors of the classical region.

    The ``ATOL_ALGEBRA`` floor keeps exact inputs with rounding dust below zero classical.
    The verdict assumes identical devices on the two halves of the pair: with
    devices A and B the row is ``c^2 = -vzA * vzB``, so two quantum devices
    with opposite ``vz`` also read "consistent with classical".
    """
    return bool(c2.value >= -(CLASSICAL_SIGMA * c2.stderr + ATOL_ALGEBRA))


def classicality_statistic(e) -> np.ndarray:
    """``e(0,1) + e(1,0) - e(0,0) - e(1,1)`` over the last axis of a (..., 4) pattern table.

    > 0 is impossible classically. The terms are added in this order for
    every shape, so `checks.check_classicality_dichotomy` and the sweep
    script's ``s_exact`` column agree to the bit. A report writes ``S`` as
    ``-c^2 / 4`` from its ``c^2`` instead.
    """
    e = np.asarray(e)
    return e[..., 1] + e[..., 2] - e[..., 0] - e[..., 3]


def _check_werner_p(p: float) -> None:
    if not MIN_WERNER_P <= p <= 1.0:
        raise ValueError(f"source parameter must lie in [{MIN_WERNER_P}, 1], got {p!r}")


def _self_convolution(w) -> np.ndarray:
    """``e[..., r] = (1/4) * sum_s w[..., s] * w[..., s xor r]`` over the last axis.

    Each product keeps the operand order ``w(s) * w(s xor r)`` (a fused
    complex multiply is not commutative to the bit), and each row adds its
    four products left to right from +0.0, the order of `povm._hadamard`,
    without building the ``(..., 4, 4)`` product table.
    """
    w = _float_table(w)
    cols = [w[..., s] for s in range(4)]
    e = np.empty(w.shape, w.dtype)
    for r in range(4):
        e[..., r] = sum((cols[s] * cols[s ^ r] for s in range(4)), 0.0)
    e /= 4.0
    return e
