"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion verdicts
appear in the terminal summary.
"""

import contextlib

import numpy as np

from conftest import record_acceptance
from oracles import (
    ErrorModel,
    bloch_density,
    density,
    element,
    kd_from_state,
    kd_pair_from_state,
    min_eigenvalue_hermitian,
    pair_outcome_probs,
    pattern_quasiprobs,
    predicted_pattern_probs,
    random_bloch_vector,
    singlet,
    trace_product,
)
from xymeas import cli
from xymeas.analysis import (
    classicality_statistic,
    estimate_visibility,
    is_classical,
    pattern_estimates,
)
from xymeas.checks import visibility_grid
from xymeas.kirkwood import kd_from_bloch, reconstruct_kd
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    VisibilityTriple,
    _hadamard,
    build_povm,
    exact_pattern_probs,
    ideal_operator,
    outcome_table,
)
from xymeas.qubit import bloch_vector, identity, pauli
from xymeas.simulate import ExperimentConfig, run_eigenstate_experiment, run_pair_experiment

SQ3 = 1.0 / np.sqrt(3.0)
GRID = [VisibilityTriple(*v) for v in visibility_grid(9)]


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        record_acceptance(number, name, False)
        raise
    record_acceptance(number, name, True)


def test_criterion_1_povm_structure():
    with criterion(1, "POVM completeness and closed-form positivity on the 9x9x9 grid"):
        for v in GRID:
            povm = build_povm(v)
            total = sum(element(povm, *o) for o in OUTCOMES4)
            assert np.max(np.abs(total - identity())) <= 1e-12
            expected_min = (1.0 - np.sqrt(v.norm_squared)) / 4.0
            for o in OUTCOMES4:
                lam = min_eigenvalue_hermitian(element(povm, *o))
                assert abs(lam - expected_min) <= 1e-10


def test_criterion_2_exact_pair_predictions():
    with criterion(2, "closed-form pattern probabilities match the pair trace formula"):
        singlet_rho = density(singlet())
        for v in GRID:
            e = exact_pattern_probs(v)
            povm = build_povm(v)
            probs = pair_outcome_probs(povm, povm, singlet_rho)
            for (x1, y1, x2, y2), prob in zip(OUTCOMES16, probs):
                r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
                assert abs(prob - e[PATTERNS.index(r)]) <= 1e-12
        symmetric = exact_pattern_probs(VisibilityTriple(SQ3, SQ3, SQ3))
        # PATTERNS order: (0, 0), (0, 1), (1, 0), (1, 1)
        assert abs(symmetric[0] - 1 / 12) <= 1e-12
        assert abs(symmetric[1] - 1 / 12) <= 1e-12
        assert abs(symmetric[2] - 1 / 12) <= 1e-12
        assert abs(symmetric[3]) <= 1e-12


def test_criterion_3_negative_csquared():
    with criterion(3, "c^2 = -vz^2 exactly on the grid; Monte-Carlo hits -1/3 non-classically"):
        for v in GRID:
            c2 = 4.0 * _hadamard(exact_pattern_probs(v))[3]
            assert abs(c2 - (-(v.vz ** 2))) <= 1e-12
        config = ExperimentConfig(
            visibilities=VisibilityTriple(SQ3, SQ3, SQ3), shots=1_000_000, seed=20240910
        )
        counts = run_pair_experiment(config)
        _, _, corr = pattern_estimates(counts)
        assert abs(corr.value - (-1 / 3)) <= 0.01
        assert corr.value < -3.0 * corr.stderr
        assert is_classical(corr) is False


def test_criterion_4_classicality_dichotomy():
    with criterion(4, "S = vz^2/4 >= 0 on the grid; S <= 0 for 10^4 classical models"):
        for v in GRID:
            s = classicality_statistic(exact_pattern_probs(v))
            assert abs(s - v.vz ** 2 / 4.0) <= 1e-12
            assert s >= -1e-12
        rng = np.random.Generator(np.random.Philox(key=20240911))
        for _ in range(10_000):
            weights = rng.dirichlet(np.ones(4))
            model = ErrorModel(weights=weights.astype(complex))
            assert classicality_statistic(predicted_pattern_probs(model)) <= 1e-10


def test_criterion_5_visibility_recovery():
    with criterion(5, "eigenstate runs recover vx, vy at 5 sigma; pair squares agree"):
        v = VisibilityTriple(0.6, 0.7, 0.3)
        shots = 1_000_000
        counts_x = run_eigenstate_experiment(
            ExperimentConfig(visibilities=v, shots=shots, seed=20240912), "X", +1
        )
        counts_y = run_eigenstate_experiment(
            ExperimentConfig(visibilities=v, shots=shots, seed=20240913), "Y", +1
        )
        vx_est = estimate_visibility(counts_x)
        vy_est = estimate_visibility(counts_y)
        assert abs(vx_est.value - v.vx) <= 5.0 * vx_est.stderr
        assert abs(vy_est.value - v.vy) <= 5.0 * vy_est.stderr

        pair = run_pair_experiment(
            ExperimentConfig(visibilities=v, shots=shots, seed=20240914)
        )
        vx2, vy2, _ = pattern_estimates(pair)
        for pair_est, eig_est in ((vx2, vx_est), (vy2, vy_est)):
            eig_sq = eig_est.value ** 2
            eig_sq_stderr = 2.0 * abs(eig_est.value) * eig_est.stderr
            combined = np.hypot(pair_est.stderr, eig_sq_stderr)
            assert abs(pair_est.value - eig_sq) <= 5.0 * combined


def test_criterion_6_fourier_identity():
    with criterion(6, "4*sum chi(r) E(r) = (sum chi(s) eta(s))^2 for 10^4 complex models"):
        rng = np.random.Generator(np.random.Philox(key=20240915))
        characters = [
            lambda r: 1.0,
            lambda r: (-1.0) ** r[0],
            lambda r: (-1.0) ** r[1],
            lambda r: (-1.0) ** (r[0] + r[1]),
        ]
        for _ in range(10_000):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            raw = raw + (1.0 - raw.sum()) / 4.0
            model = ErrorModel(weights=raw)
            e = pattern_quasiprobs(model).tolist()
            weights = model.weights.tolist()
            for chi in characters:
                lhs = 4.0 * sum(chi(r) * e[k] for k, r in enumerate(PATTERNS))
                rhs = sum(chi(r) * complex(weights[k]) for k, r in enumerate(PATTERNS)) ** 2
                assert abs(lhs - rhs) <= 1e-10


def test_criterion_7_kd_round_trip():
    with criterion(7, "reconstruction inverts the measurement for 10^3 states; Z+ table pinned"):
        rng = np.random.Generator(np.random.Philox(key=20240916))
        for _ in range(1000):
            while True:
                vx, vy = rng.uniform(0.05, 1.0, size=2)
                vz = rng.uniform(0.05, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
                if vx * vx + vy * vy + vz * vz <= 1.0:
                    break
            v = VisibilityTriple(vx, vy, vz)
            r = random_bloch_vector(rng)
            p = outcome_table(build_povm(v), r)
            kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
            expected = kd_from_state(bloch_density(r))
            for k in range(4):
                assert abs(kd.entries[k] - expected.entries[k]) <= 1e-10

        v = VisibilityTriple(SQ3, SQ3, SQ3)
        p = outcome_table(build_povm(v), bloch_vector("Z", +1))
        kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert abs(kd.entries[0] - (1 + 1j) / 4) <= 1e-10
        assert abs(kd.entries[1] - (1 - 1j) / 4) <= 1e-10
        assert abs(kd.entries[2] - (1 - 1j) / 4) <= 1e-10
        assert abs(kd.entries[3] - (1 + 1j) / 4) <= 1e-10


def test_criterion_8_operator_identities():
    with criterion(8, "X@Y = i Z; ideal operators are the vz = i family and give KD entries"):
        assert np.max(np.abs(pauli("X") @ pauli("Y") - 1j * pauli("Z"))) <= 1e-12
        eye = identity()
        for sx, sy in OUTCOMES4:
            family = (eye + sx * pauli("X") + sy * pauli("Y") + sx * sy * 1j * pauli("Z")) / 4.0
            assert np.max(np.abs(ideal_operator(sx, sy) - family)) <= 1e-12
        rng = np.random.Generator(np.random.Philox(key=20240917))
        for _ in range(1000):
            r = random_bloch_vector(rng)
            kd = kd_from_bloch(r)
            for (x, y), entry in zip(OUTCOMES4, kd.entries.tolist()):
                value = trace_product(ideal_operator(x, y), bloch_density(r))
                assert abs(value - entry) <= 1e-12


def test_criterion_9_singlet_pair_kd():
    with criterion(9, "singlet pair quasi-probability is the real quarter-delta table"):
        kd = kd_pair_from_state(density(singlet()))
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, kd.tolist()):
            assert abs(entry.imag) <= 1e-12
            expected = 0.25 if (x2 == -x1 and y2 == -y1) else 0.0
            assert abs(entry.real - expected) <= 1e-12


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical simulate invocations are byte-identical, for any worker count"):
        def run(directory, workers):
            directory.mkdir()
            out = directory / "counts.txt"
            code = cli.main(
                [
                    "simulate", "--mode", "pair",
                    "--vx", str(SQ3), "--vy", str(SQ3), "--vz", str(SQ3),
                    "--shots", "200000", "--seed", "20240918",
                    "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            return out.read_bytes()

        first = run(tmp_path / "a", 1)
        second = run(tmp_path / "b", 1)
        third = run(tmp_path / "c", 6)
        assert first == second == third

        def run_eigen(directory, workers):
            directory.mkdir()
            out = directory / "counts.txt"
            code = cli.main(
                [
                    "simulate", "--mode", "eigenstate", "--axis", "X", "--value", "+1",
                    "--vx", "0.6", "--vy", "0.7", "--vz", "0.3",
                    "--shots", "200000", "--seed", "20240919",
                    "--randomize-flips", "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            return out.read_bytes()

        assert run_eigen(tmp_path / "d", 1) == run_eigen(tmp_path / "e", 5)
