"""Seeded Monte-Carlo runs: determinism, statistics, flips, source noise."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xymeas import simulate
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    outcome_probs,
    pair_outcome_probs,
)
from xymeas.qubit import density, eigenstate, identity, pauli, singlet, tensor, trace_product
from xymeas.simulate import (
    BLOCK_SHOTS,
    ExperimentConfig,
    OutcomeCounts4,
    PairCounts16,
    _cumulative,
    _histogram,
    block_rng,
    run_eigenstate_experiment,
    run_pair_experiment,
    werner_state,
)

SQ3 = 1.0 / np.sqrt(3.0)

# chi-square quantiles at significance 1e-3 (upper tail)
CHI2_CRIT_3DOF = 16.266
CHI2_CRIT_15DOF = 37.697


def sample_categorical(probs, rng: np.random.Generator, size: int | None = None):
    """Draw category indices by inverse CDF over the given fixed ordering.

    The one-draw-at-a-time law that `simulate._histogram` counts by edge
    crossings. Probabilities are renormalized when their sum deviates from 1
    by less than 1e-9; larger deviations and negative entries are rejected.
    Returns a scalar index when ``size`` is None, else an array of ``size``.
    """
    cum = _cumulative(probs)
    u = rng.random(size if size is not None else 1)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    return int(idx[0]) if size is None else idx


def chi_square(counts, probs, total):
    expected = np.asarray(probs) * total
    observed = np.asarray(counts, dtype=float)
    mask = expected > 0
    return float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))


class TestSampleCategorical:
    def test_deterministic_category(self):
        rng = block_rng(1, 0)
        draws = sample_categorical([1.0, 0.0, 0.0, 0.0], rng, size=1000)
        assert np.all(draws == 0)

    def test_uniform_frequencies(self):
        rng = block_rng(2, 0)
        draws = sample_categorical([0.25] * 4, rng, size=1_000_000)
        freqs = np.bincount(draws, minlength=4) / 1_000_000
        assert np.max(np.abs(freqs - 0.25)) < 0.005

    def test_same_seed_same_sequence(self):
        a = sample_categorical([0.1, 0.2, 0.3, 0.4], block_rng(3, 5), size=100)
        b = sample_categorical([0.1, 0.2, 0.3, 0.4], block_rng(3, 5), size=100)
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        idx = sample_categorical([0.0, 1.0], block_rng(4, 0))
        assert idx == 1

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_categorical([0.5, 0.6, -0.1], block_rng(0, 0))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            sample_categorical([0.5, 0.4], block_rng(0, 0))

    def test_tiny_deviation_renormalized(self):
        probs = [0.25, 0.25, 0.25, 0.25 + 5e-10]
        sample_categorical(probs, block_rng(0, 0), size=10)

    def test_zero_probability_category_never_drawn(self):
        draws = sample_categorical([0.5, 0.0, 0.5], block_rng(5, 0), size=100_000)
        assert not np.any(draws == 1)


@st.composite
def histogram_cases(draw):
    """Edges of a probability vector with zero categories, uniforms, a mask."""
    weights = draw(
        st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=16)
        .filter(lambda w: sum(w) > 0)
    )
    cum = _cumulative(np.array(weights) / sum(weights))
    below_one = [float(c) for c in cum if c < 1.0]
    special = [0.0, float(np.nextafter(1.0, 0.0)), *below_one]
    special += [float(np.nextafter(c, 0.0)) for c in below_one if c > 0.0]
    u = draw(
        st.lists(
            st.one_of(st.sampled_from(special), st.floats(0.0, 1.0, exclude_max=True)),
            min_size=1,
            max_size=40,
        )
    )
    mask = draw(st.sampled_from(["none", "all-false", "random"]))
    if mask == "none":
        where = None
    elif mask == "all-false":
        where = np.zeros(len(u), dtype=bool)
    else:
        where = np.array(draw(st.lists(st.booleans(), min_size=len(u), max_size=len(u))))
    return cum, np.array(u), where


class TestHistogram:
    @settings(max_examples=200, deadline=None)
    @given(case=histogram_cases())
    @example(case=(np.array([0.5, 0.5, 1.0]), np.array([0.5]), None))
    @example(case=(np.array([0.25, 1.0]), np.array([0.25]), np.zeros(1, dtype=bool)))
    def test_equals_bincount_of_inverse_cdf(self, case):
        cum, u, where = case
        k = cum.size
        selected = u if where is None else u[where]
        expected = np.bincount(
            np.minimum(np.searchsorted(cum, selected, side="right"), k - 1), minlength=k
        )
        assert np.array_equal(_histogram(cum, u, where), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 64 - 1),
        index=st.integers(0, 10_000),
        n=st.integers(1, 5000),
    )
    @example(seed=1, index=0, n=BLOCK_SHOTS)
    @example(seed=2 ** 64 - 1, index=3, n=1)
    def test_one_double_draw_is_two_consecutive_draws(self, seed, index, n):
        rng = block_rng(seed, index)
        first, second = rng.random(n), rng.random(n)
        assert np.array_equal(
            block_rng(seed, index).random(2 * n), np.concatenate([first, second])
        )


def _same_state(a, b) -> bool:
    """Equality of two bit-generator state dicts, whose counters and keys are arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestBlockRng:
    """`block_rng` builds the counter directly; the stream is ``Philox(key=seed).jumped(i)``."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), index=st.integers(0, 2 ** 64 - 1))
    @example(seed=0, index=0)
    @example(seed=2 ** 64 - 1, index=61)
    @example(seed=7, index=2 ** 63)
    def test_equals_jumped_generator(self, seed, index):
        rng = block_rng(seed, index)
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        assert _same_state(rng.bit_generator.state, jumped.bit_generator.state)
        assert np.array_equal(rng.random(9), jumped.random(9))
        assert np.array_equal(rng.integers(0, 2 ** 62, size=5), jumped.integers(0, 2 ** 62, size=5))
        assert _same_state(rng.bit_generator.state, jumped.bit_generator.state)


def per_shot_eigenstate_counts(config, axis, value, randomize_flips):
    """Reference sampler: one inverse-CDF index per shot, then a bincount."""
    povm = build_povm(config.visibilities)
    cums = {
        v: _cumulative(outcome_probs(povm, density(eigenstate(axis, v))).array)
        for v in (value, -value)
    }
    hist = np.zeros(4, dtype=np.int64)
    for index, start in enumerate(range(0, config.shots, BLOCK_SHOTS)):
        n = min(BLOCK_SHOTS, config.shots - start)
        rng = block_rng(config.seed, index)
        flips = rng.random(n) < 0.5 if randomize_flips else np.zeros(n, dtype=bool)
        u = rng.random(n)
        nominal = np.searchsorted(cums[value], u, side="right")
        flipped = np.searchsorted(cums[-value], u, side="right") ^ 3
        idx = np.minimum(np.where(flips, flipped, nominal), 3)
        hist += np.bincount(idx, minlength=4)
    return hist


class TestConfig:
    def test_validation(self):
        v = VisibilityTriple(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(visibilities=v, shots=0, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(visibilities=v, shots=10, seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(visibilities=v, shots=10, seed=2 ** 64)
        # werner_p is an argument of the pair run, checked by werner_state
        with pytest.raises(ValueError, match="werner parameter"):
            run_pair_experiment(ExperimentConfig(visibilities=v, shots=10, seed=1), werner_p=1.5)

    def test_run_options_are_keyword_only(self):
        # a positional worker count must not land in randomize_flips or werner_p
        config = ExperimentConfig(visibilities=VisibilityTriple(0.5, 0.5, 0.0), shots=10, seed=1)
        with pytest.raises(TypeError):
            run_eigenstate_experiment(config, "X", +1, 4)
        with pytest.raises(TypeError):
            run_pair_experiment(config, 0.9)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            OutcomeCounts4(
                counts={o: 1 for o in OUTCOMES4}, total=5, input_axis="X", input_value=+1
            )
        with pytest.raises(ValueError):
            PairCounts16(counts={o: -1 for o in OUTCOMES16}, total=-16)


class TestWernerState:
    def test_endpoints(self):
        assert np.allclose(werner_state(1.0), density(singlet()), atol=1e-15)
        assert np.allclose(werner_state(0.0), identity(4) / 4.0, atol=1e-15)

    def test_half_mixture_correlation(self):
        xx = tensor(pauli("X"), pauli("X"))
        value = trace_product(xx, werner_state(0.5))
        assert value.real == pytest.approx(-0.5, abs=1e-12)
        assert abs(value.imag) <= 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            werner_state(-0.1)
        with pytest.raises(ValueError):
            werner_state(1.1)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
    def test_pair_probs_linear_in_noise(self, p):
        povm = build_povm(VisibilityTriple(0.5, 0.4, 0.6))
        noisy = pair_outcome_probs(povm, povm, werner_state(p))
        pure = pair_outcome_probs(povm, povm, density(singlet()))
        for o in OUTCOMES16:
            expected = p * pure[o] + (1.0 - p) / 16.0
            assert noisy[o] == pytest.approx(expected, abs=1e-12)


class TestEigenstateExperiment:
    def test_projective_limit(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0), shots=20_000, seed=11
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        assert counts.counts[(-1, +1)] == 0
        assert counts.counts[(-1, -1)] == 0
        assert counts.counts[(+1, +1)] + counts.counts[(+1, -1)] == 20_000

    def test_frequencies_near_exact(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.8, 0.0), shots=1_000_000, seed=12
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        expected = {(+1, +1): 0.4, (+1, -1): 0.4, (-1, +1): 0.1, (-1, -1): 0.1}
        for o in OUTCOMES4:
            assert counts.counts[o] / config.shots == pytest.approx(expected[o], abs=0.005)

    def test_pure_correlation_device_is_blind_to_eigenstates(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.0, 0.0, 1.0), shots=400_000, seed=13
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        for o in OUTCOMES4:
            assert counts.counts[o] / config.shots == pytest.approx(0.25, abs=0.005)

    def test_five_sigma_multinomial_bound(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.3, 0.7, 0.4), shots=1_000_000, seed=14
        )
        counts = run_eigenstate_experiment(config, "Y", -1)
        probs = outcome_probs(
            build_povm(config.visibilities), density(eigenstate("Y", -1))
        )
        for o in OUTCOMES4:
            p = probs[o]
            bound = 5.0 * np.sqrt(p * (1.0 - p) / config.shots)
            assert abs(counts.counts[o] / config.shots - p) <= bound

    def test_axis_z_rejected(self):
        config = ExperimentConfig(visibilities=VisibilityTriple(0.5, 0.5, 0.0), shots=10, seed=1)
        with pytest.raises(ValueError):
            run_eigenstate_experiment(config, "Z", +1)

    def test_deterministic_given_config(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.3, 0.2),
            shots=3 * BLOCK_SHOTS + 17,
            seed=99,
        )
        a = run_eigenstate_experiment(config, "X", -1, randomize_flips=True)
        b = run_eigenstate_experiment(config, "X", -1, randomize_flips=True)
        assert a == b

    def test_worker_count_does_not_change_counts(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.3, 0.2), shots=5 * BLOCK_SHOTS + 5, seed=77
        )
        serial = run_eigenstate_experiment(config, "Y", +1, workers=1)
        parallel = run_eigenstate_experiment(config, "Y", +1, workers=4)
        assert serial == parallel

    def test_flip_randomization_is_a_distributional_noop(self):
        # the measurement family is outcome-symmetric, so de-randomized
        # counts must match the no-flip distribution (GOF at 1e-3)
        v = VisibilityTriple(0.6, 0.3, 0.5)
        shots = 200_000
        probs = outcome_probs(build_povm(v), density(eigenstate("X", +1)))
        expected = [probs[o] for o in OUTCOMES4]
        for seed, flips in ((21, True), (22, False)):
            config = ExperimentConfig(visibilities=v, shots=shots, seed=seed)
            counts = run_eigenstate_experiment(config, "X", +1, randomize_flips=flips)
            observed = [counts.counts[o] for o in OUTCOMES4]
            assert chi_square(observed, expected, shots) < CHI2_CRIT_3DOF

    @pytest.mark.parametrize("flips", [False, True])
    def test_counts_equal_per_shot_reference(self, flips):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.3, 0.5),
            shots=2 * BLOCK_SHOTS + 17,
            seed=41,
        )
        counts = run_eigenstate_experiment(config, "Y", -1, randomize_flips=flips)
        assert np.array_equal(
            counts.counts.array, per_shot_eigenstate_counts(config, "Y", -1, flips)
        )

    def test_flipped_counts_recorded_in_nominal_frame(self):
        # projective X device: flipped shots must still be recorded as +1
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0),
            shots=50_000,
            seed=23,
        )
        counts = run_eigenstate_experiment(config, "X", +1, randomize_flips=True)
        assert counts.counts[(-1, +1)] == 0
        assert counts.counts[(-1, -1)] == 0


class TestWorkerThreads:
    def test_one_block_runs_serially(self, monkeypatch):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=BLOCK_SHOTS, seed=43
        )
        serial = run_eigenstate_experiment(config, "X", +1, randomize_flips=True, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block run started a thread pool")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        assert run_eigenstate_experiment(config, "X", +1, randomize_flips=True, workers=4) == serial

    def test_several_blocks_use_the_pool(self, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=2 * BLOCK_SHOTS + 1, seed=44
        )
        serial = run_pair_experiment(config, workers=1)
        assert pools == []
        assert run_pair_experiment(config, workers=2) == serial
        assert run_pair_experiment(config, workers=8) == serial
        # three blocks: never more threads than blocks
        assert pools == [2, 3]


class TestPairExperiment:
    def test_symmetric_point_suppresses_repeated_outcomes(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(SQ3, SQ3, SQ3), shots=1_000_000, seed=31
        )
        counts = run_pair_experiment(config)
        repeated = sum(counts.counts[(x, y, x, y)] for x, y in OUTCOMES4)
        assert repeated < 5

    def test_blind_device_uniform(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.0, 0.0, 0.0), shots=500_000, seed=32
        )
        counts = run_pair_experiment(config)
        for o in OUTCOMES16:
            assert counts.counts[o] / config.shots == pytest.approx(1 / 16, abs=0.005)

    def test_projective_x_anticorrelates_exactly(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0), shots=100_000, seed=33
        )
        counts = run_pair_experiment(config)
        same_x = sum(n for (x1, y1, x2, y2), n in counts.counts.items() if x1 == x2)
        assert same_x == 0

    def test_five_sigma_against_exact(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.5, 0.4, 0.3), shots=1_000_000, seed=34
        )
        counts = run_pair_experiment(config, werner_p=0.9)
        povm = build_povm(config.visibilities)
        probs = pair_outcome_probs(povm, povm, werner_state(0.9))
        for o in OUTCOMES16:
            p = probs[o]
            bound = 5.0 * np.sqrt(p * (1.0 - p) / config.shots)
            assert abs(counts.counts[o] / config.shots - p) <= bound

    def test_goodness_of_fit(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.5, 0.5, 0.5), shots=400_000, seed=35
        )
        counts = run_pair_experiment(config)
        povm = build_povm(config.visibilities)
        probs = pair_outcome_probs(povm, povm, density(singlet()))
        observed = [counts.counts[o] for o in OUTCOMES16]
        expected = [probs[o] for o in OUTCOMES16]
        assert chi_square(observed, expected, config.shots) < CHI2_CRIT_15DOF

    def test_counts_equal_per_shot_reference(self):
        v = VisibilityTriple(0.4, 0.5, 0.3)
        config = ExperimentConfig(visibilities=v, shots=BLOCK_SHOTS + 9, seed=42)
        povm = build_povm(v)
        cum = _cumulative(pair_outcome_probs(povm, povm, werner_state(0.7)).array)
        expected = np.zeros(16, dtype=np.int64)
        for index, n in enumerate((BLOCK_SHOTS, 9)):
            idx = np.searchsorted(cum, block_rng(42, index).random(n), side="right")
            expected += np.bincount(np.minimum(idx, 15), minlength=16)
        assert np.array_equal(run_pair_experiment(config, werner_p=0.7).counts.array, expected)

    def test_deterministic_and_chunking_invariant(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.4, 0.4),
            shots=2 * BLOCK_SHOTS + 123,
            seed=36,
        )
        a = run_pair_experiment(config, werner_p=0.8, workers=1)
        b = run_pair_experiment(config, werner_p=0.8, workers=3)
        c = run_pair_experiment(config, werner_p=0.8, workers=8)
        assert a == b == c

    def test_pattern_frequencies_near_exact(self):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        config = ExperimentConfig(visibilities=v, shots=1_000_000, seed=37)
        counts = run_pair_experiment(config)
        stats = exact_pattern_probs(v)
        class_counts = {r: 0 for r in ((0, 0), (0, 1), (1, 0), (1, 1))}
        for (x1, y1, x2, y2), n in counts.counts.items():
            r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
            class_counts[r] += n
        for r, n in class_counts.items():
            assert n / (4 * config.shots) == pytest.approx(stats.e[r], abs=0.002)
