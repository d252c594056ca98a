"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion verdicts
appear in the terminal summary.
"""

import contextlib

import numpy as np

from conftest import record_acceptance
from xymeas import cli
from xymeas.analysis import (
    ErrorModel,
    classicality_statistic,
    collapse_pair_counts,
    csquared_from_patterns,
    estimate_vx,
    estimate_vy,
    is_classical,
    pattern_quasiprobs,
    predicted_pattern_probs,
    vsquared_from_patterns,
)
from xymeas.checks import visibility_grid
from xymeas.kirkwood import kd_from_state, kd_pair_from_state, random_qubit_density, reconstruct_kd
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    ideal_operator,
    outcome_probs,
    pair_outcome_probs,
)
from xymeas.qubit import (
    density,
    eigenstate,
    identity,
    min_eigenvalue_hermitian,
    pauli,
    singlet,
    trace_product,
)
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
            total = sum(povm.element(*o) for o in OUTCOMES4)
            assert np.max(np.abs(total - identity(2))) <= 1e-12
            expected_min = (1.0 - np.sqrt(v.norm_squared)) / 4.0
            for o in OUTCOMES4:
                lam = min_eigenvalue_hermitian(povm.element(*o))
                assert abs(lam - expected_min) <= 1e-10


def test_criterion_2_exact_pair_predictions():
    with criterion(2, "closed-form pattern probabilities match the pair trace formula"):
        singlet_rho = density(singlet())
        for v in GRID:
            stats = exact_pattern_probs(v)
            povm = build_povm(v)
            probs = pair_outcome_probs(povm, povm, singlet_rho)
            for x1, y1, x2, y2 in OUTCOMES16:
                r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
                assert abs(probs[(x1, y1, x2, y2)] - stats.e[r]) <= 1e-12
        symmetric = exact_pattern_probs(VisibilityTriple(SQ3, SQ3, SQ3))
        assert abs(symmetric.e[(0, 0)] - 1 / 12) <= 1e-12
        assert abs(symmetric.e[(0, 1)] - 1 / 12) <= 1e-12
        assert abs(symmetric.e[(1, 0)] - 1 / 12) <= 1e-12
        assert abs(symmetric.e[(1, 1)]) <= 1e-12


def test_criterion_3_negative_csquared():
    with criterion(3, "c^2 = -vz^2 exactly on the grid; Monte-Carlo hits -1/3 non-classically"):
        for v in GRID:
            corr = csquared_from_patterns(exact_pattern_probs(v))
            assert abs(corr.value - (-(v.vz ** 2))) <= 1e-12
        config = ExperimentConfig(
            visibilities=VisibilityTriple(SQ3, SQ3, SQ3), shots=1_000_000, seed=20240910
        )
        counts = run_pair_experiment(config)
        corr = csquared_from_patterns(collapse_pair_counts(counts))
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
            model = ErrorModel(weights={r: complex(weights[i]) for i, r in enumerate(PATTERNS)})
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
        vx_est = estimate_vx(counts_x)
        vy_est = estimate_vy(counts_y)
        assert abs(vx_est.value - v.vx) <= 5.0 * vx_est.stderr
        assert abs(vy_est.value - v.vy) <= 5.0 * vy_est.stderr

        pair = run_pair_experiment(
            ExperimentConfig(visibilities=v, shots=shots, seed=20240914)
        )
        vx2, vy2 = vsquared_from_patterns(collapse_pair_counts(pair))
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
            model = ErrorModel(weights={r: raw[i] for i, r in enumerate(PATTERNS)})
            e = pattern_quasiprobs(model)
            for chi in characters:
                lhs = 4.0 * sum(chi(r) * e[r] for r in PATTERNS)
                rhs = sum(chi(r) * complex(model.weights[r]) for r in PATTERNS) ** 2
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
            rho = random_qubit_density(rng)
            p = outcome_probs(build_povm(v), rho)
            kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
            expected = kd_from_state(rho)
            for o in OUTCOMES4:
                assert abs(kd.entries[o] - expected.entries[o]) <= 1e-10

        v = VisibilityTriple(SQ3, SQ3, SQ3)
        p = outcome_probs(build_povm(v), density(eigenstate("Z", +1)))
        kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
        assert abs(kd.entries[(+1, +1)] - (1 + 1j) / 4) <= 1e-10
        assert abs(kd.entries[(+1, -1)] - (1 - 1j) / 4) <= 1e-10
        assert abs(kd.entries[(-1, +1)] - (1 - 1j) / 4) <= 1e-10
        assert abs(kd.entries[(-1, -1)] - (1 + 1j) / 4) <= 1e-10


def test_criterion_8_operator_identities():
    with criterion(8, "X@Y = i Z; ideal operators are the vz = i family and give KD entries"):
        assert np.max(np.abs(pauli("X") @ pauli("Y") - 1j * pauli("Z"))) <= 1e-12
        eye = identity(2)
        for sx, sy in OUTCOMES4:
            family = (eye + sx * pauli("X") + sy * pauli("Y") + sx * sy * 1j * pauli("Z")) / 4.0
            assert np.max(np.abs(ideal_operator(sx, sy) - family)) <= 1e-12
        rng = np.random.Generator(np.random.Philox(key=20240917))
        for _ in range(1000):
            rho = random_qubit_density(rng)
            kd = kd_from_state(rho)
            for x, y in OUTCOMES4:
                value = trace_product(ideal_operator(x, y), rho)
                assert abs(value - kd.entries[(x, y)]) <= 1e-12


def test_criterion_9_singlet_pair_kd():
    with criterion(9, "singlet pair quasi-probability is the real quarter-delta table"):
        kd = kd_pair_from_state(density(singlet()))
        for x1, y1, x2, y2 in OUTCOMES16:
            entry = complex(kd[(x1, y1, x2, y2)])
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
