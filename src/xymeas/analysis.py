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

Each kind of run has one estimator: `estimate_visibility` gives ``vx`` or
``vy`` from an eigenstate run of that axis, and `pattern_estimates` gives
``vx^2``, ``vy^2`` and ``c^2`` from the pattern probabilities of a pair run.
Each estimate is one `Estimate`, value and standard error; `is_classical` is
the one verdict on ``c^2``.

Standard errors use plain binomial/multinomial propagation. Zero-count
pattern cells get the rule-of-three upper bound ``3/N`` in place of an
estimated binomial spread.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .povm import OUTCOMES16, PATTERNS, PatternStats, _float_table, _hadamard
from .qubit import ATOL_ALGEBRA
from .simulate import OutcomeCounts4, PairCounts16

# Verdict threshold: an estimate within 3 standard errors of the classical
# region counts as consistent with a classical error model.
CLASSICAL_SIGMA = 3.0

# The smallest Werner parameter a source-noise correction divides by. The
# corrected table's sum carries the input's rounding (a few ulp of 1/4)
# divided by p, which must stay inside the 1e-9 sum tolerance of a
# PatternStats: a 1000-shot pair table broke it at p = 1e-9.
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


def estimate_visibility(counts: OutcomeCounts4) -> Estimate:
    """Resolution of the input axis from an X- or Y-eigenstate run.

    ``(correct count - wrong count) / total`` of the outcome on the axis the
    record names (``counts.input_axis``), summed over the other outcome.
    """
    total = counts.total
    if total <= 0:
        raise ValueError("estimate_visibility needs at least one shot")
    # OUTCOMES4 order: rows x = +1, -1; columns y = +1, -1
    marginal = counts.counts.reshape(2, 2).sum(axis=1 if counts.input_axis == "X" else 0)
    p = float(marginal[0 if counts.input_value == +1 else 1]) / total
    stderr = 2.0 * np.sqrt(p * (1.0 - p) / total)
    return Estimate(value=2.0 * p - 1.0, stderr=stderr)


def pattern_of(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """Flip pattern of a pair outcome: 0 where the singlet anti-correlation holds."""
    return (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)


# Pattern index of each entry of an OUTCOMES16 table.
_PATTERN_INDEX16 = np.array([PATTERNS.index(pattern_of(*o)) for o in OUTCOMES16])


def collapse_pair_counts(counts: PairCounts16) -> PatternStats:
    """Reduce 16 pair-outcome counts to the four per-outcome pattern probabilities.

    Four outcome combinations share each pattern, so ``e(r)`` is the pattern
    class count divided by ``4 * total``.
    """
    total = counts.total
    if total <= 0:
        raise ValueError("collapse_pair_counts needs at least one shot")
    class_counts = np.bincount(_PATTERN_INDEX16, weights=counts.counts, minlength=len(PATTERNS))
    f = class_counts / total
    # rule-of-three upper bound for an empty pattern class
    stderr = np.where(f == 0.0, 3.0 / total, np.sqrt(f * (1.0 - f) / total)) / 4.0
    return PatternStats(e=f / 4.0, stderr=stderr)


def pattern_estimates(stats: PatternStats) -> tuple[Estimate, Estimate, Estimate]:
    """``vx^2``, ``vy^2`` and ``c^2`` from pattern probabilities, rows of ``4 * H e``.

    The three sums share one standard error. Every measurement in the
    positive family gives ``c^2 = -vz^2`` exactly; a significantly negative
    estimate is the non-classical signature (see `is_classical`). Only the
    square is observable, so no sign of the correlation itself is reported.
    """
    _, vy2, vx2, c2 = (4.0 * _hadamard(stats.e)).tolist()
    stderr = 4.0 * float(np.sqrt(sum(s ** 2 for s in stats.stderr.tolist())))
    return Estimate(vx2, stderr), Estimate(vy2, stderr), Estimate(c2, stderr)


def is_classical(c2: Estimate) -> bool:
    """Whether ``c^2`` lies within ``CLASSICAL_SIGMA`` standard errors of the classical region.

    The ``ATOL_ALGEBRA`` floor keeps exact inputs with rounding dust below zero classical.
    """
    return bool(c2.value >= -(CLASSICAL_SIGMA * c2.stderr + ATOL_ALGEBRA))


def classicality_statistic(e) -> np.ndarray:
    """``e(0,1) + e(1,0) - e(0,0) - e(1,1)`` over the last axis of a (..., 4) pattern table.

    > 0 is impossible classically. The terms are added in this order for
    every shape, so a report and a sweep agree to the bit.
    """
    e = np.asarray(e)
    return e[..., 1] + e[..., 2] - e[..., 0] - e[..., 3]


def correct_for_source_noise(stats: PatternStats, p: float) -> PatternStats:
    """Undo isotropic source noise of known strength on pattern probabilities.

    A source with werner parameter ``p`` mixes the singlet pattern table with
    the uniform 1/16 background: ``e_noisy = p * e_pure + (1 - p) / 16``.
    Inverting divides every pattern contrast by ``p`` and scales standard
    errors by ``1/p``. Model-dependent: valid only for isotropic noise with a
    correctly known ``p``, at least ``MIN_WERNER_P``. Corrected sampled
    entries may fall below 0 or above 1/4 where the true probability is near
    either end.
    """
    if not MIN_WERNER_P <= p <= 1.0:
        raise ValueError(f"source parameter must lie in [{MIN_WERNER_P}, 1], got {p!r}")
    return PatternStats(e=(stats.e - (1.0 - p) / 16.0) / p, stderr=stats.stderr / p)


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
