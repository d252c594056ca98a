"""Seeded Monte-Carlo runs: determinism, statistics, flips, source noise."""

import dataclasses
import os
import platform
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import density, eigenstate, pair_outcome_probs, singlet, tensor, trace_product, werner_state
from xymeas import simulate
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    outcome_table,
)
from xymeas.qubit import bloch_vector, pauli
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
    werner_table,
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
    cums = {v: _cumulative(outcome_table(povm, bloch_vector(axis, v))) for v in (value, -value)}
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
        # werner_p is an argument of the pair run, checked by werner_table
        for werner_p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="werner parameter"):
                run_pair_experiment(ExperimentConfig(visibilities=v, shots=10, seed=1), werner_p=werner_p)

    def test_run_options_are_keyword_only(self):
        # a positional worker count must not land in randomize_flips or werner_p
        config = ExperimentConfig(visibilities=VisibilityTriple(0.5, 0.5, 0.0), shots=10, seed=1)
        with pytest.raises(TypeError):
            run_eigenstate_experiment(config, "X", +1, 4)
        with pytest.raises(TypeError):
            run_pair_experiment(config, 0.9)

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            PairCounts16(counts=[-1] * 16)

    @pytest.mark.parametrize("axis", ["Z", "x"])
    def test_input_axis_is_x_or_y(self, axis):
        # the estimator reads the axis from the record, so it must be one it measures
        with pytest.raises(ValueError, match="input_axis must be 'X' or 'Y'"):
            OutcomeCounts4(counts=[1] * 4, input_axis=axis, input_value=+1)

    def test_total_is_derived_from_the_table(self):
        eig = OutcomeCounts4(counts=[1, 2, 3, 4], input_axis="Y", input_value=-1)
        pair = PairCounts16(counts=range(16))
        assert [f.name for f in dataclasses.fields(eig)] == ["counts", "input_axis", "input_value"]
        assert [f.name for f in dataclasses.fields(pair)] == ["counts"]
        assert (eig.total, pair.total) == (10, 120)
        assert type(eig.total) is int and type(pair.total) is int


class TestWernerState:
    def test_endpoints(self):
        assert np.allclose(werner_state(1.0), density(singlet()), atol=1e-15)
        assert np.allclose(werner_state(0.0), np.eye(4) / 4.0, atol=1e-15)

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
        for k in range(16):
            expected = p * pure[k] + (1.0 - p) / 16.0
            assert noisy[k] == pytest.approx(expected, abs=1e-12)


@st.composite
def family_triples(draw):
    """Visibility triples of the family, about half of them on its boundary ``|v| = 1``."""
    direction = np.array([draw(st.floats(min_value=-1.0, max_value=1.0)) for _ in range(3)])
    norm = float(np.sqrt(np.sum(direction * direction)))
    assume(norm > 1e-3)
    radius = draw(st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)))
    vx, vy, vz = (direction * (radius / norm)).tolist()
    return VisibilityTriple(min(abs(vx), 1.0), min(abs(vy), 1.0), vz)


# Hashes the inverse-CDF edges every run samples from: 200 seeded triples
# (a tenth with |v| = 1), flip-randomized eigenstate runs on both axes and
# values, and Werner runs at p = 0, 0.37 and 1, one shot each. The triples
# are built without a BLAS call, so only the tables can move the hash.
KERNEL_HASH_SCRIPT = """
import hashlib
import numpy as np
from xymeas import simulate
from xymeas.povm import VisibilityTriple

edges = []
cumulative = simulate._cumulative

def recording_cumulative(probs):
    cum = cumulative(probs)
    edges.append(cum.tobytes())
    return cum

simulate._cumulative = recording_cumulative
rng = np.random.Generator(np.random.Philox(key=7))
for _ in range(200):
    d = rng.normal(size=3)
    d /= np.sqrt(np.sum(d * d))
    r = 1.0 if rng.random() < 0.1 else rng.random() ** (1 / 3)
    config = simulate.ExperimentConfig(VisibilityTriple(abs(d[0]) * r, abs(d[1]) * r, d[2] * r), 1, 1)
    for axis in "XY":
        for value in (+1, -1):
            simulate.run_eigenstate_experiment(config, axis, value, randomize_flips=True)
    for p in (0.0, 0.37, 1.0):
        simulate.run_pair_experiment(config, werner_p=p)
print(len(edges), hashlib.sha256(b"".join(edges)).hexdigest())
"""


def _openblas_kernels_selectable() -> bool:
    """Whether numpy's BLAS is OpenBLAS on an x86-64 CPU that runs its Haswell kernels (AVX2, FMA)."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (ImportError, KeyError, TypeError):
        return False
    return bool(__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")) and "openblas" in blas.lower()


class TestSamplingTables:
    """The tables the runs sample from, read off the elements' Bloch components."""

    @settings(max_examples=200, deadline=None)
    @given(v=family_triples())
    def test_eigenstate_tables_equal_operator_traces(self, v):
        povm = build_povm(v)
        for axis in ("X", "Y", "Z"):
            for value in (+1, -1):
                rho = density(eigenstate(axis, value))
                reference = [trace_product(e, rho).real for e in povm]
                assert np.max(np.abs(outcome_table(povm, bloch_vector(axis, value)) - reference)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(v=family_triples(), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_werner_tables_equal_operator_traces(self, v, p):
        povm = build_povm(v)
        reference = pair_outcome_probs(povm, povm, werner_state(p))
        assert np.max(np.abs(werner_table(povm, p) - reference)) <= 1e-15

    @pytest.mark.skipif(
        not _openblas_kernels_selectable(),
        reason="forcing OpenBLAS kernels needs numpy on OpenBLAS and an x86-64 CPU with AVX2 and FMA",
    )
    def test_tables_do_not_depend_on_the_blas_kernel(self):
        src = str(Path(simulate.__file__).resolve().parents[1])
        hashes = {}
        for kernel in ("Haswell", "Sandybridge"):
            env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL_HASH_SCRIPT], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            hashes[kernel] = proc.stdout
        assert hashes["Haswell"].startswith("2200 ")
        assert hashes["Haswell"] == hashes["Sandybridge"]


class TestEigenstateExperiment:
    def test_projective_limit(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0), shots=20_000, seed=11
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert counts.counts[2] == 0
        assert counts.counts[3] == 0
        assert counts.counts[0] + counts.counts[1] == 20_000

    def test_frequencies_near_exact(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.8, 0.0), shots=1_000_000, seed=12
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        expected = [0.4, 0.4, 0.1, 0.1]
        for k in range(4):
            assert counts.counts[k] / config.shots == pytest.approx(expected[k], abs=0.005)

    def test_pure_correlation_device_is_blind_to_eigenstates(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.0, 0.0, 1.0), shots=400_000, seed=13
        )
        counts = run_eigenstate_experiment(config, "X", +1)
        for n in counts.counts:
            assert n / config.shots == pytest.approx(0.25, abs=0.005)

    def test_five_sigma_multinomial_bound(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.3, 0.7, 0.4), shots=1_000_000, seed=14
        )
        counts = run_eigenstate_experiment(config, "Y", -1)
        probs = outcome_table(build_povm(config.visibilities), bloch_vector("Y", -1))
        for k in range(4):
            p = probs[k]
            bound = 5.0 * np.sqrt(p * (1.0 - p) / config.shots)
            assert abs(counts.counts[k] / config.shots - p) <= bound

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
        assert np.array_equal(a.counts, b.counts)

    def test_worker_count_does_not_change_counts(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.6, 0.3, 0.2), shots=5 * BLOCK_SHOTS + 5, seed=77
        )
        serial = run_eigenstate_experiment(config, "Y", +1, workers=1)
        parallel = run_eigenstate_experiment(config, "Y", +1, workers=4)
        assert np.array_equal(serial.counts, parallel.counts)

    def test_flip_randomization_is_a_distributional_noop(self):
        # the measurement family is outcome-symmetric, so de-randomized
        # counts must match the no-flip distribution (GOF at 1e-3)
        v = VisibilityTriple(0.6, 0.3, 0.5)
        shots = 200_000
        probs = outcome_table(build_povm(v), bloch_vector("X", +1))
        expected = probs.tolist()
        for seed, flips in ((21, True), (22, False)):
            config = ExperimentConfig(visibilities=v, shots=shots, seed=seed)
            counts = run_eigenstate_experiment(config, "X", +1, randomize_flips=flips)
            observed = counts.counts.tolist()
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
            counts.counts, per_shot_eigenstate_counts(config, "Y", -1, flips)
        )

    def test_flipped_counts_recorded_in_nominal_frame(self):
        # projective X device: flipped shots must still be recorded as +1
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0),
            shots=50_000,
            seed=23,
        )
        counts = run_eigenstate_experiment(config, "X", +1, randomize_flips=True)
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert counts.counts[2] == 0
        assert counts.counts[3] == 0


class TestWorkerThreads:
    @staticmethod
    def recording_pool(monkeypatch):
        """Patch the executor to record each pool's size; return the record."""
        pools = []

        class RecordingPool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
        return pools

    def test_one_block_runs_serially(self, monkeypatch):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=BLOCK_SHOTS, seed=43
        )
        serial = run_eigenstate_experiment(config, "X", +1, randomize_flips=True, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block run started a thread pool")

        monkeypatch.setattr(futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
        parallel = run_eigenstate_experiment(config, "X", +1, randomize_flips=True, workers=4)
        assert np.array_equal(parallel.counts, serial.counts)

    def test_several_blocks_use_the_pool(self, monkeypatch):
        pools = self.recording_pool(monkeypatch)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=2 * BLOCK_SHOTS + 1, seed=44
        )
        serial = run_pair_experiment(config, workers=1)
        assert pools == []
        assert np.array_equal(run_pair_experiment(config, workers=2).counts, serial.counts)
        assert np.array_equal(run_pair_experiment(config, workers=8).counts, serial.counts)
        # three blocks: never more threads than blocks
        assert pools == [2, 3]

    def test_one_usable_cpu_runs_serially(self, monkeypatch):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=2 * BLOCK_SHOTS + 1, seed=45
        )
        serial = run_pair_experiment(config, workers=1)
        pools = self.recording_pool(monkeypatch)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
        assert np.array_equal(run_pair_experiment(config, workers=8).counts, serial.counts)
        assert pools == []

    def test_never_more_threads_than_usable_cpus(self, monkeypatch):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.5, 0.3), shots=2 * BLOCK_SHOTS + 1, seed=46
        )
        serial = run_eigenstate_experiment(config, "Y", -1, randomize_flips=True, workers=1)
        pools = self.recording_pool(monkeypatch)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        parallel = run_eigenstate_experiment(config, "Y", -1, randomize_flips=True, workers=8)
        assert np.array_equal(parallel.counts, serial.counts)
        assert pools == [2]

    def test_cli_import_leaves_the_thread_pool_out(self):
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = "import sys, xymeas.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestPairExperiment:
    def test_symmetric_point_suppresses_repeated_outcomes(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(SQ3, SQ3, SQ3), shots=1_000_000, seed=31
        )
        counts = run_pair_experiment(config)
        repeated = sum(counts.counts[OUTCOMES16.index((x, y, x, y))] for x, y in OUTCOMES4)
        assert repeated < 5

    def test_blind_device_uniform(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.0, 0.0, 0.0), shots=500_000, seed=32
        )
        counts = run_pair_experiment(config)
        for n in counts.counts:
            assert n / config.shots == pytest.approx(1 / 16, abs=0.005)

    def test_projective_x_anticorrelates_exactly(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(1.0, 0.0, 0.0), shots=100_000, seed=33
        )
        counts = run_pair_experiment(config)
        same_x = sum(n for (x1, y1, x2, y2), n in zip(OUTCOMES16, counts.counts) if x1 == x2)
        assert same_x == 0

    def test_five_sigma_against_exact(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.5, 0.4, 0.3), shots=1_000_000, seed=34
        )
        counts = run_pair_experiment(config, werner_p=0.9)
        povm = build_povm(config.visibilities)
        probs = pair_outcome_probs(povm, povm, werner_state(0.9))
        for k in range(16):
            p = probs[k]
            bound = 5.0 * np.sqrt(p * (1.0 - p) / config.shots)
            assert abs(counts.counts[k] / config.shots - p) <= bound

    def test_goodness_of_fit(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.5, 0.5, 0.5), shots=400_000, seed=35
        )
        counts = run_pair_experiment(config)
        povm = build_povm(config.visibilities)
        probs = pair_outcome_probs(povm, povm, density(singlet()))
        observed = counts.counts.tolist()
        expected = probs.tolist()
        assert chi_square(observed, expected, config.shots) < CHI2_CRIT_15DOF

    def test_counts_equal_per_shot_reference(self):
        v = VisibilityTriple(0.4, 0.5, 0.3)
        config = ExperimentConfig(visibilities=v, shots=BLOCK_SHOTS + 9, seed=42)
        povm = build_povm(v)
        cum = _cumulative(werner_table(povm, 0.7))
        expected = np.zeros(16, dtype=np.int64)
        for index, n in enumerate((BLOCK_SHOTS, 9)):
            idx = np.searchsorted(cum, block_rng(42, index).random(n), side="right")
            expected += np.bincount(np.minimum(idx, 15), minlength=16)
        assert np.array_equal(run_pair_experiment(config, werner_p=0.7).counts, expected)

    def test_deterministic_and_chunking_invariant(self):
        config = ExperimentConfig(
            visibilities=VisibilityTriple(0.4, 0.4, 0.4),
            shots=2 * BLOCK_SHOTS + 123,
            seed=36,
        )
        a = run_pair_experiment(config, werner_p=0.8, workers=1)
        b = run_pair_experiment(config, werner_p=0.8, workers=3)
        c = run_pair_experiment(config, werner_p=0.8, workers=8)
        assert np.array_equal(a.counts, b.counts) and np.array_equal(b.counts, c.counts)

    def test_pattern_frequencies_near_exact(self):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        config = ExperimentConfig(visibilities=v, shots=1_000_000, seed=37)
        counts = run_pair_experiment(config)
        e = exact_pattern_probs(v)
        class_counts = {r: 0 for r in ((0, 0), (0, 1), (1, 0), (1, 1))}
        for (x1, y1, x2, y2), n in zip(OUTCOMES16, counts.counts):
            r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
            class_counts[r] += n
        for r, n in class_counts.items():
            assert n / (4 * config.shots) == pytest.approx(e[PATTERNS.index(r)], abs=0.002)
