"""Seeded Monte-Carlo simulation of eigenstate and entangled-pair runs.

Determinism contract
--------------------
All randomness comes from one 64-bit seed. Shots are partitioned into fixed
blocks of ``BLOCK_SHOTS``; block ``i`` draws from the counter-based
``numpy.random.Philox`` generator keyed with the seed and jumped ``i`` times
(``Philox(key=seed).jumped(i)``). A jump adds 2^128 to the 256-bit counter,
so that generator is built directly as ``Philox(key=seed, counter=[0, 0, i, 0])``,
the same state without a jump. Block boundaries depend only on the shot
count, never on the worker count, and block results are merged by addition,
so serial and parallel executions produce identical counts.

`ExperimentConfig` holds what both kinds of run share; ``randomize_flips``
and ``werner_p`` are arguments of the one run function that reads each.

Within a block the draw order is fixed: when flip randomization is active,
first one uniform per shot for the flip coin, then one uniform per shot for
the outcome; otherwise only the outcome uniforms. Outcomes are drawn by
inverse CDF over the fixed category order ``OUTCOMES4`` / ``OUTCOMES16``
(+1 before -1). Each block is counted by edge crossings, the number of draws
below each cumulative edge, which gives the inverse-CDF histogram exactly.

Every table a run samples from is read elementwise off the rows of the
device's real Bloch table ``(t, bx, by, bz) = (Tr E, Tr EX, Tr EY, Tr EZ)``,
which `povm.build_povm` returns. An eigenstate table is `povm.outcome_table`
at the Bloch vector ``value * unit(axis)``; a Werner pair table is
``(t (x) t - p (bx (x) bx + by (x) by + bz (x) bz)) / 4`` (`werner_table`).
No operator or state matrix is built and no matrix product or eigensolve
runs, so the edges depend on neither the BLAS library nor its kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .povm import VisibilityTriple, _checked_table, build_povm, outcome_table
from .qubit import bloch_vector, ensure_axis, ensure_sign

BLOCK_SHOTS = 1 << 16

RNG_ID = "numpy.random.Philox keyed with the seed; block i uses .jumped(i)"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters every run shares; ``randomize_flips`` and ``werner_p`` are run arguments."""

    visibilities: VisibilityTriple
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _shot_counts(values, size: int) -> np.ndarray:
    """``size`` integer shot counts, >= 0 and not all 0, as a read-only vector; floats are rejected."""
    counts = _checked_table(values, size, dtype=None, low=0, what="counts")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts: expected integer shot counts, got {counts.dtype} {counts.tolist()}")
    if not counts.any():
        raise ValueError("counts: expected at least one shot")
    return counts


@dataclass(frozen=True, eq=False)
class OutcomeCounts4:
    """Shot counts of an eigenstate run over the outcomes (x, y).

    ``counts`` becomes a read-only integer vector in ``OUTCOMES4`` order.
    ``input_axis`` is ``"X"`` or ``"Y"``; ``total`` is the sum of the table.
    Instances compare by identity; compare ``counts`` with numpy.
    """

    counts: np.ndarray
    input_axis: str
    input_value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _shot_counts(self.counts, 4))
        if self.input_axis not in ("X", "Y"):
            raise ValueError(f"input_axis must be 'X' or 'Y', got {self.input_axis!r}")
        object.__setattr__(self, "input_value", ensure_sign(self.input_value, "input_value"))

    @property
    def total(self) -> int:
        return sum(self.counts.tolist())


@dataclass(frozen=True, eq=False)
class PairCounts16:
    """Shot counts of a pair run over the outcomes (x1, y1, x2, y2).

    ``counts`` becomes a read-only integer vector in ``OUTCOMES16`` order;
    ``total`` is the sum of the table. Instances compare by identity.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _shot_counts(self.counts, 16))

    @property
    def total(self) -> int:
        return sum(self.counts.tolist())


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent generator for one shot block; see the module docstring."""
    counter = np.array([0, 0, block_index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _cumulative(probs) -> np.ndarray:
    """Inverse-CDF edges of a probability vector; the last edge is exactly 1."""
    p = np.clip(_checked_table(probs, low=-1e-12, total=1.0, what="probabilities"), 0.0, None)
    cum = np.cumsum(p / np.sum(p))
    cum[-1] = 1.0
    return cum


def _histogram(cum: np.ndarray, u: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """Counts of the draws ``u`` (those in ``where``) per inverse-CDF category.

    A draw falls in category k or below exactly when ``u < cum[k]``, so the
    differenced counts below the first K-1 edges are the histogram of
    ``searchsorted(cum, u, side="right")`` clipped to K-1, with no index per draw.
    """
    below = [np.count_nonzero(u < c if where is None else (u < c) & where) for c in cum[:-1]]
    total = u.size if where is None else np.count_nonzero(where)
    return np.diff(below + [total], prepend=0)


def werner_table(device: np.ndarray, p: float) -> np.ndarray:
    """Pair table, in ``OUTCOMES16`` order, of one device on both halves of a Werner source.

    The source is ``p * singlet + (1 - p) * I/4 = (II - p (XX + YY + ZZ)) / 4``,
    so entry ``(k1, k2)`` is ``(t t - p (bx bx + by by + bz bz)) / 4`` over
    columns ``k1`` and ``k2`` of the Bloch table `povm.build_povm` returns.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {p!r}")
    tt, xx, yy, zz = (c[:, None] * c[None, :] for c in device)
    return ((tt - p * (xx + yy + zz)) / 4.0).reshape(16)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _accumulate_blocks(
    shots: int,
    block_sampler: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    workers: int,
) -> np.ndarray:
    """Sum per-block histograms; identical for any worker count by construction.

    At most ``min(workers, blocks, usable CPUs)`` threads run, and a single
    one runs serially without a pool: on one CPU a second thread cannot run
    in parallel and only adds its own block buffer.
    """
    sizes = [min(BLOCK_SHOTS, shots - start) for start in range(0, shots, BLOCK_SHOTS)]

    def one_block(index: int) -> np.ndarray:
        return block_sampler(block_rng(seed, index), sizes[index])

    threads = min(workers, len(sizes), _usable_cpus())
    if threads > 1:
        # imported here so that processes which never start a pool do not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as executor:
            return np.sum(list(executor.map(one_block, range(len(sizes)))), axis=0)
    return np.sum([one_block(index) for index in range(len(sizes))], axis=0)


def run_eigenstate_experiment(
    config: ExperimentConfig, axis: str, value: int, *, randomize_flips: bool = False,
    workers: int = 1,
) -> OutcomeCounts4:
    """Simulate joint measurements on an X or Y eigenstate input.

    With ``randomize_flips``, each shot flips the input eigenvalue with
    probability 1/2; a flipped shot samples the outcome for the negated
    eigenvalue and records the negation of both outcome bits, which
    preserves the flip pattern relative to the input. Returned counts are
    therefore always in the nominal input frame. The tables sampled are
    `povm.outcome_table` of the input and, with flips, of its negation.
    """
    axis = ensure_axis(axis)
    value = ensure_sign(value)
    if axis == "Z":
        raise ValueError("eigenstate runs accept axis X or Y only")

    device = build_povm(config.visibilities)
    cum_nominal = _cumulative(outcome_table(device, bloch_vector(axis, value)))
    if randomize_flips:
        cum_flipped = _cumulative(outcome_table(device, bloch_vector(axis, -value)))

    def block_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        if not randomize_flips:
            return _histogram(cum_nominal, rng.random(n))
        # two draws of n continue one stream: the flip coins, then the outcomes
        flips = rng.random(n) < 0.5
        u = rng.random(n)
        # an OUTCOMES4 index has one bit per sign, so (-x, -y) is index ^ 3
        flipped = _histogram(cum_flipped, u, flips)[np.arange(4) ^ 3]
        return _histogram(cum_nominal, u, ~flips) + flipped

    hist = _accumulate_blocks(config.shots, block_sampler, config.seed, workers)
    return OutcomeCounts4(counts=hist, input_axis=axis, input_value=value)


def run_pair_experiment(
    config: ExperimentConfig, *, werner_p: float = 1.0, workers: int = 1
) -> PairCounts16:
    """Simulate identical joint measurements on both halves of a Werner source.

    The source is ``werner_p * singlet + (1 - werner_p) * I/4``; its table
    is `werner_table`, which rejects a ``werner_p`` outside [0, 1] or NaN.
    """
    cum = _cumulative(werner_table(build_povm(config.visibilities), werner_p))

    def block_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return _histogram(cum, rng.random(n))

    hist = _accumulate_blocks(config.shots, block_sampler, config.seed, workers)
    return PairCounts16(counts=hist)
