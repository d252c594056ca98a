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

Each estimate (``vx``, ``vy``; ``vx^2``, ``vy^2``, ``c^2``) is one `Estimate`,
value and standard error; `is_classical` is the one verdict on ``c^2``.

Standard errors use plain binomial/multinomial propagation. Zero-count
pattern cells get the rule-of-three upper bound ``3/N`` in place of an
estimated binomial spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    PatternStats,
    Table,
    _float_table,
    _hadamard,
    _sum4,
)
from .qubit import ATOL_ALGEBRA, ensure_axis
from .simulate import OutcomeCounts4, PairCounts16

# Verdict threshold: an estimate within 3 standard errors of the classical
# region counts as consistent with a classical error model.
CLASSICAL_SIGMA = 3.0


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


@dataclass(frozen=True)
class ErrorModel:
    """Complex quasi-probability weights over the four flip patterns.

    ``weights[(rx, ry)]`` is the (quasi-)probability that the measurement
    flips the X outcome iff ``rx = 1`` and the Y outcome iff ``ry = 1``.
    Normalization to 1 is enforced; weights are complex because quantum
    measurements require an imaginary correlation part. Physical models have
    real signed sums for vx and vy, which the consumers below check where
    they rely on it.
    """

    weights: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        weights = Table(
            PATTERNS, self.weights, dtype=complex, total=1.0, tol=ATOL_ALGEBRA, what="error model"
        )
        object.__setattr__(self, "weights", weights)


def _estimate_visibility(counts: OutcomeCounts4, axis: str) -> Estimate:
    """``(correct count - wrong count) / total`` of the measured axis."""
    name = f"estimate_v{axis.lower()}"
    if ensure_axis(counts.input_axis) != axis:
        raise ValueError(f"{name} needs an {axis}-eigenstate run, got axis {counts.input_axis!r}")
    if counts.total < 1:
        raise ValueError(f"{name} needs at least one shot")
    # OUTCOMES4 order: rows x = +1, -1; columns y = +1, -1
    marginal = counts.counts.array.reshape(2, 2).sum(axis=1 if axis == "X" else 0)
    p = float(marginal[0 if counts.input_value == +1 else 1]) / counts.total
    stderr = 2.0 * np.sqrt(max(p * (1.0 - p), 0.0) / counts.total)
    return Estimate(value=2.0 * p - 1.0, stderr=stderr)


def estimate_vx(counts: OutcomeCounts4) -> Estimate:
    """Resolution of the X outcome from an X-eigenstate run.

    ``(correct-x count - wrong-x count) / total`` summed over both y outcomes.
    """
    return _estimate_visibility(counts, "X")


def estimate_vy(counts: OutcomeCounts4) -> Estimate:
    """Mirror of `estimate_vx` for Y-eigenstate runs."""
    return _estimate_visibility(counts, "Y")


def pattern_of(x1: int, y1: int, x2: int, y2: int) -> tuple[int, int]:
    """Flip pattern of a pair outcome: 0 where the singlet anti-correlation holds."""
    return (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)


# Pattern index of each entry of an OUTCOMES16 table.
_PATTERN_INDEX16 = np.array([PATTERNS.index(pattern_of(*o)) for o in OUTCOMES16])


def collapse_pair_counts(counts: PairCounts16) -> PatternStats:
    """Reduce 16 pair-outcome counts to the four per-outcome pattern probabilities.

    Four outcome combinations share each pattern, so ``e(r)`` is the pattern
    class count divided by ``4 * total``. Integer counts are a sampled run;
    a float table (total 1, e.g. exact probabilities) lines up with
    `povm.exact_pattern_probs` and comes back with ``total_shots = 0`` and
    zero standard errors.
    """
    if counts.total <= 0:
        raise ValueError("collapse_pair_counts needs at least one shot")
    table = counts.counts.array
    sampled = table.dtype.kind in "iu"
    class_counts = np.bincount(_PATTERN_INDEX16, weights=table, minlength=len(PATTERNS))
    f = np.clip(class_counts / counts.total, 0.0, 1.0)
    if sampled:
        # rule-of-three upper bound for an empty pattern class
        stderr = np.where(f == 0.0, 3.0 / counts.total, np.sqrt(f * (1.0 - f) / counts.total)) / 4.0
    else:
        stderr = np.zeros(len(PATTERNS))
    return PatternStats(e=f / 4.0, stderr=stderr, total_shots=int(counts.total) if sampled else 0)


def _pattern_sums(stats: PatternStats) -> tuple[list[float], float]:
    """``4 * H e`` = (1, vy^2, vx^2, c^2) and the standard error each sum shares."""
    sums = (4.0 * _hadamard(stats.e.array)).tolist()
    return sums, 4.0 * float(np.sqrt(sum(s ** 2 for s in stats.stderr.values())))


def vsquared_from_patterns(stats: PatternStats) -> tuple[Estimate, Estimate]:
    """Squared visibilities from pattern probabilities, with propagated errors."""
    (_, vy2, vx2, _), stderr = _pattern_sums(stats)
    return Estimate(value=vx2, stderr=stderr), Estimate(value=vy2, stderr=stderr)


def csquared_from_patterns(stats: PatternStats) -> Estimate:
    """Squared error correlation ``c^2`` from pattern probabilities.

    Every measurement in the positive family gives exactly ``-vz^2``; a
    significantly negative estimate is the non-classical signature (see
    `is_classical`). Only the square is observable, so no sign of the
    correlation itself is ever reported.
    """
    (_, _, _, c2), stderr = _pattern_sums(stats)
    return Estimate(value=c2, stderr=stderr)


def is_classical(c2: Estimate) -> bool:
    """Whether ``c^2`` lies within ``CLASSICAL_SIGMA`` standard errors of the classical region.

    The ``ATOL_ALGEBRA`` floor keeps exact inputs with rounding dust below zero classical.
    """
    return bool(c2.value >= -(CLASSICAL_SIGMA * c2.stderr + ATOL_ALGEBRA))


def classicality_statistic(stats: PatternStats) -> float:
    """``e(0,1) + e(1,0) - e(0,0) - e(1,1)``; > 0 is impossible classically."""
    return stats.e[(0, 1)] + stats.e[(1, 0)] - stats.e[(0, 0)] - stats.e[(1, 1)]


def correct_for_source_noise(stats: PatternStats, p: float) -> PatternStats:
    """Undo isotropic source noise of known strength on pattern probabilities.

    A source with werner parameter ``p`` mixes the singlet pattern table with
    the uniform 1/16 background: ``e_noisy = p * e_pure + (1 - p) / 16``.
    Inverting divides every pattern contrast by ``p`` and scales standard
    errors by ``1/p``. Model-dependent: valid only for isotropic noise with a
    correctly known ``p``. Corrected sampled entries may be slightly
    negative where the true probability is near zero.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"source parameter must lie in (0, 1], got {p!r}")
    return PatternStats(
        e=(stats.e.array - (1.0 - p) / 16.0) / p,
        stderr=stats.stderr.array / p,
        total_shots=stats.total_shots,
    )


def error_model_from_visibilities(vx: complex, vy: complex, c: complex) -> ErrorModel:
    """Flip-pattern weights with the given signed sums.

    ``weights = H @ (1, vy, vx, c) / 4``, i.e.
    ``weights(rx, ry) = (1 + (-1)^rx * vx + (-1)^ry * vy + (-1)^(rx+ry) * c) / 4``.
    Exact inverse of `visibilities_from_error_model` (``H @ H = 4``).
    """
    return ErrorModel(weights=_hadamard([1.0, vy, vx, c]) / 4.0)


def visibilities_from_error_model(m: ErrorModel) -> tuple[complex, complex, complex]:
    """The three signed sums (vx, vy, c) of an error model's weights."""
    _, vy, vx, c = _hadamard(m.weights.array).tolist()
    return complex(vx), complex(vy), complex(c)


def eigenstate_probs_from_error_model(m: ErrorModel, axis: str) -> Table:
    """Predicted outcome table for a +1 eigenstate input of the given axis.

    Only the no-flip/flip marginals ``(1 +- v) / 2`` of the measured axis
    enter, so the correlation part drops out. Complex or out-of-range
    marginals signal a model that is unphysical for this use and are
    rejected.
    """
    axis = ensure_axis(axis)
    if axis not in ("X", "Y"):
        raise ValueError("eigenstate predictions exist for axis X or Y only")
    total, vy, vx, _ = _hadamard(m.weights.array).tolist()
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
    return Table(OUTCOMES4, np.where(correct, keep_p, flip_p) / 2.0)


def _self_convolution(w) -> np.ndarray:
    """``e[..., r] = (1/4) * sum_s w[..., s] * w[..., s xor r]`` over the last axis.

    Bit for bit the ``np.sum`` over the ``(..., 4, 4)`` table of products
    ``w(s) * w(s xor r)``, without building it: each product keeps that
    operand order (a fused complex multiply is not commutative to the bit)
    and each row is added by `povm._sum4`.
    """
    w = _float_table(w)
    cols = [w[..., s] for s in range(4)]
    e = np.empty(w.shape, w.dtype)
    for r in range(4):
        _sum4(*(cols[s] * cols[s ^ r] for s in range(4)), out=e[..., r])
    e /= 4.0
    return e


def pattern_quasiprobs(m: ErrorModel) -> Table:
    """XOR self-convolution ``(1/4) * sum_s weights(s) * weights(s xor r)``.

    For a normalized model these complex values satisfy, for each of the
    four sign characters chi, ``4 * sum_r chi(r) e(r) = (sum_s chi(s) w(s))^2``.
    """
    return Table(PATTERNS, _self_convolution(m.weights.array), dtype=complex)


def predicted_pattern_probs(m: ErrorModel) -> PatternStats:
    """Pattern probabilities predicted for identical measurements on a singlet pair.

    The XOR self-convolution of `pattern_quasiprobs`, with entries required
    to come out real and non-negative (within 1e-10, then clamped); a
    materially complex or negative entry marks the model as inconsistent
    with pair statistics.
    """
    e = _self_convolution(m.weights.array)
    for r, value in zip(PATTERNS, e.tolist()):
        if abs(value.imag) > 1e-10:
            raise ValueError(f"predicted pattern e{r} is complex: {value!r}")
        if value.real < -1e-10:
            raise ValueError(f"predicted pattern e{r} is negative: {value.real!r}")
    return PatternStats(e=np.maximum(e.real, 0.0), stderr=np.zeros(len(PATTERNS)), total_shots=0)
