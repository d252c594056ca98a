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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .povm import (
    OUTCOMES4,
    OUTCOMES16,
    Table,
    VisibilityTriple,
    _checked_table,
    build_povm,
    outcome_probs,
    pair_outcome_probs,
)
from .qubit import density, eigenstate, ensure_axis, ensure_sign, identity, singlet

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


@dataclass(frozen=True)
class OutcomeCounts4:
    """Outcome counts of an eigenstate run, keyed by (x, y).

    ``counts`` becomes a `Table` in ``OUTCOMES4`` order whose dtype says what
    it holds: integers for a simulated run, floats for an exact probability
    table riding through the same type with ``total = 1.0``.
    """

    counts: Mapping[tuple[int, int], float]
    total: float
    input_axis: str
    input_value: int

    def __post_init__(self) -> None:
        # rounding dust below zero tolerated for exact tables
        counts = Table(
            OUTCOMES4, self.counts, dtype=None, low=-1e-12, total=self.total, what="counts"
        )
        object.__setattr__(self, "counts", counts)
        ensure_axis(self.input_axis)
        ensure_sign(self.input_value, "input_value")


@dataclass(frozen=True)
class PairCounts16:
    """Outcome counts of a pair run, keyed by (x1, y1, x2, y2).

    ``counts`` becomes a `Table` in ``OUTCOMES16`` order; integers for a
    simulated run, floats for an exact probability table with ``total = 1.0``.
    """

    counts: Mapping[tuple[int, int, int, int], float]
    total: float

    def __post_init__(self) -> None:
        counts = Table(
            OUTCOMES16, self.counts, dtype=None, low=-1e-12, total=self.total, what="counts"
        )
        object.__setattr__(self, "counts", counts)


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


def werner_state(p: float) -> np.ndarray:
    """Isotropic mixture ``p * singlet + (1 - p) * I/4`` of the pair source."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must lie in [0, 1], got {p!r}")
    return p * density(singlet()) + (1.0 - p) * identity(4) / 4.0


def _accumulate_blocks(
    shots: int,
    block_sampler: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    workers: int,
) -> np.ndarray:
    """Sum per-block histograms; identical for any worker count by construction.

    At most one thread per block runs, and a single one runs serially.
    """
    sizes = [min(BLOCK_SHOTS, shots - start) for start in range(0, shots, BLOCK_SHOTS)]

    def one_block(index: int) -> np.ndarray:
        return block_sampler(block_rng(seed, index), sizes[index])

    threads = min(workers, len(sizes))
    if threads > 1:
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
    therefore always in the nominal input frame.
    """
    axis = ensure_axis(axis)
    value = ensure_sign(value)
    if axis == "Z":
        raise ValueError("eigenstate runs accept axis X or Y only")

    povm = build_povm(config.visibilities)
    cum_nominal = _cumulative(outcome_probs(povm, density(eigenstate(axis, value))).array)
    if randomize_flips:
        cum_flipped = _cumulative(outcome_probs(povm, density(eigenstate(axis, -value))).array)

    def block_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        if not randomize_flips:
            return _histogram(cum_nominal, rng.random(n))
        # one draw of 2n is the stream of the flip coins, then the outcomes
        w = rng.random(2 * n)
        flips = w[:n] < 0.5
        u = w[n:]
        # an OUTCOMES4 index has one bit per sign, so (-x, -y) is index ^ 3
        flipped = _histogram(cum_flipped, u, flips)[np.arange(4) ^ 3]
        return _histogram(cum_nominal, u, ~flips) + flipped

    hist = _accumulate_blocks(config.shots, block_sampler, config.seed, workers)
    return OutcomeCounts4(counts=hist, total=config.shots, input_axis=axis, input_value=value)


def run_pair_experiment(
    config: ExperimentConfig, *, werner_p: float = 1.0, workers: int = 1
) -> PairCounts16:
    """Simulate identical joint measurements on both halves of a `werner_state` source."""
    povm = build_povm(config.visibilities)
    cum = _cumulative(pair_outcome_probs(povm, povm, werner_state(werner_p)).array)

    def block_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return _histogram(cum, rng.random(n))

    hist = _accumulate_blocks(config.shots, block_sampler, config.seed, workers)
    return PairCounts16(counts=hist, total=config.shots)
