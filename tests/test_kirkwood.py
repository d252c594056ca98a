"""Quasi-probability computation, reconstruction, and operator identities."""

import numpy as np
import pytest

from oracles import (
    bloch_density,
    density,
    eigenstate,
    error_model_from_visibilities,
    forward_map,
    kd_from_state,
    kd_pair_from_state,
    random_bloch_vector,
    singlet,
    tensor,
    trace_product,
    werner_state,
)
from xymeas import checks
from xymeas.checks import CheckResult, check_operator_identities
from xymeas.kirkwood import (
    SINGULAR_VISIBILITY,
    KDDistribution,
    SingularInversionError,
    kd_from_bloch,
    reconstruct_kd,
)
from xymeas.povm import OUTCOMES4, OUTCOMES16, VisibilityTriple, build_povm, outcome_table
from xymeas.qubit import ATOL_ALGEBRA, bloch_vector, pauli
from xymeas.simulate import ExperimentConfig, run_eigenstate_experiment

SQ3 = 1.0 / np.sqrt(3.0)


class TestKDFromState:
    def test_z_plus_entries(self):
        kd = kd_from_bloch(bloch_vector("Z", +1))
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert kd.entries[0] == pytest.approx((1 + 1j) / 4, abs=1e-12)
        assert kd.entries[1] == pytest.approx((1 - 1j) / 4, abs=1e-12)
        assert kd.entries[2] == pytest.approx((1 - 1j) / 4, abs=1e-12)
        assert kd.entries[3] == pytest.approx((1 + 1j) / 4, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        kd = kd_from_bloch((0, 0, 0))
        for entry in kd.entries:
            assert entry == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("axis,value", [("X", +1), ("X", -1), ("Y", +1), ("Y", -1)])
    def test_eigenstate_kd_is_real_and_concentrated(self, axis, value):
        kd = kd_from_bloch(bloch_vector(axis, value))
        for (x, y), entry in zip(OUTCOMES4, kd.entries.tolist()):
            assert abs(entry.imag) <= 1e-12
            outcome = x if axis == "X" else y
            if outcome == value:
                # splits evenly over the unbiased partner observable
                assert entry.real == pytest.approx(0.5, abs=1e-12)
            else:
                assert entry.real == pytest.approx(0.0, abs=1e-12)

    def test_correlation_moment_is_imaginary_z_expectation(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            r = random_bloch_vector(rng)
            kd = kd_from_bloch(r)
            moment = sum(x * y * entry for (x, y), entry in zip(OUTCOMES4, kd.entries))
            mean_z = trace_product(pauli("Z"), bloch_density(r)).real
            assert complex(moment) == pytest.approx(1j * mean_z, abs=1e-12)

    def test_marginals_are_born_probabilities(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            r = random_bloch_vector(rng)
            rho = bloch_density(r)
            kd = kd_from_bloch(r)
            for x in (+1, -1):
                born = trace_product(density(eigenstate("X", x)), rho).real
                assert kd.x_marginal(x) == pytest.approx(born, abs=1e-12)
            for y in (+1, -1):
                born = trace_product(density(eigenstate("Y", y)), rho).real
                assert kd.y_marginal(y) == pytest.approx(born, abs=1e-12)

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(53)
        r1 = random_bloch_vector(rng)
        r2 = random_bloch_vector(rng)
        lam = 0.3
        mixture = kd_from_bloch(lam * r1 + (1 - lam) * r2)
        kd1 = kd_from_bloch(r1)
        kd2 = kd_from_bloch(r2)
        for k in range(4):
            expected = lam * kd1.entries[k] + (1 - lam) * kd2.entries[k]
            assert mixture.entries[k] == pytest.approx(expected, abs=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kd_from_bloch((np.nan, 0.0, 0.0))
        # the ket reference validates its density matrix
        with pytest.raises(ValueError):
            kd_from_state(np.diag([0.5, 0.6]))

    def test_matches_ket_reference(self):
        # <x|y><y|rho|x> contracted from the kets, for named states, the unit sphere and the ball
        rng = np.random.default_rng(50)
        named = [bloch_vector(a, s) for a in "XYZ" for s in (+1, -1)]
        sphere = [r / np.linalg.norm(r) for r in rng.normal(size=(50, 3))]
        ball = [random_bloch_vector(rng) for _ in range(50)]
        for r in [*named, *sphere, *ball, np.zeros(3)]:
            reference = kd_from_state(bloch_density(r)).entries
            assert np.max(np.abs(kd_from_bloch(r).entries - reference)) <= 1e-15


def kd_pair_reference(rho4) -> list:
    """``<x1,x2|y1,y2><y1,y2|rho4|x1,x2>`` in ``OUTCOMES16`` order, one outcome at a time.

    Each entry is a `vdot` of product kets.
    """
    entries = []
    for x1, y1, x2, y2 in OUTCOMES16:
        ket_x = np.kron(eigenstate("X", x1), eigenstate("X", x2))
        ket_y = np.kron(eigenstate("Y", y1), eigenstate("Y", y2))
        overlap = complex(np.vdot(ket_x, ket_y))
        entries.append(overlap * complex(np.vdot(ket_y, rho4 @ ket_x)))
    return entries


class TestPairKD:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_outcome_reference(self, seed):
        rng = np.random.default_rng(560 + seed)
        for _ in range(25):
            # Werner states mixed with random product states, and random full-rank states
            product = tensor(*(bloch_density(random_bloch_vector(rng)) for _ in range(2)))
            lam = rng.random()
            ginibre = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            generic = ginibre @ ginibre.conj().T
            for rho4 in (lam * werner_state(rng.random()) + (1 - lam) * product, generic / np.trace(generic).real):
                pair = kd_pair_from_state(rho4)
                reference = kd_pair_reference(rho4)
                for k, o in enumerate(OUTCOMES16):
                    assert abs(pair[k] - reference[k]) <= 1e-15, o

    def test_singlet_is_quarter_delta(self):
        kd = kd_pair_from_state(density(singlet()))
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, kd.tolist()):
            assert abs(entry.imag) <= 1e-12
            if x2 == -x1 and y2 == -y1:
                assert entry.real == pytest.approx(0.25, abs=1e-12)
            else:
                assert entry.real == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        kd = kd_pair_from_state(np.eye(4) / 4)
        for entry in kd:
            assert entry == pytest.approx(1 / 16, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(54)
        r_a = random_bloch_vector(rng)
        r_b = random_bloch_vector(rng)
        pair = kd_pair_from_state(tensor(bloch_density(r_a), bloch_density(r_b)))
        kd_a = kd_from_bloch(r_a)
        kd_b = kd_from_bloch(r_b)
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, pair):
            expected = kd_a.entries[OUTCOMES4.index((x1, y1))] * kd_b.entries[OUTCOMES4.index((x2, y2))]
            assert entry == pytest.approx(expected, abs=1e-12)

    def test_wing_marginals_reproduce_x_statistics(self):
        rng = np.random.default_rng(55)
        rho_a = bloch_density(random_bloch_vector(rng))
        rho_b = bloch_density(random_bloch_vector(rng))
        pair = kd_pair_from_state(tensor(rho_a, rho_b))
        for x1 in (+1, -1):
            marginal = sum(
                pair[OUTCOMES16.index((x1, y1, x2, y2))]
                for y1 in (+1, -1)
                for x2 in (+1, -1)
                for y2 in (+1, -1)
            )
            born = trace_product(density(eigenstate("X", x1)), rho_a).real
            assert complex(marginal) == pytest.approx(born, abs=1e-12)


class TestReconstruct:
    def test_z_plus_round_trip_at_symmetric_point(self):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        p = outcome_table(build_povm(v), bloch_vector("Z", +1))
        kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert kd.entries[0] == pytest.approx((1 + 1j) / 4, abs=1e-10)
        assert kd.entries[1] == pytest.approx((1 - 1j) / 4, abs=1e-10)
        assert kd.entries[2] == pytest.approx((1 - 1j) / 4, abs=1e-10)
        assert kd.entries[3] == pytest.approx((1 + 1j) / 4, abs=1e-10)

    def test_uniform_table_gives_uniform_kd(self):
        p = [0.25] * 4
        kd = reconstruct_kd(p, 0.7, 0.6, 0.2 + 0.1j)
        for entry in kd.entries:
            assert entry == pytest.approx(0.25, abs=1e-12)

    def test_round_trip_over_random_states_and_devices(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            while True:
                vx, vy = rng.uniform(0.05, 1.0, size=2)
                vz = rng.uniform(-1.0, 1.0)
                if abs(vz) >= 0.05 and vx * vx + vy * vy + vz * vz <= 1.0:
                    break
            v = VisibilityTriple(vx, vy, vz)
            r = random_bloch_vector(rng)
            p = outcome_table(build_povm(v), r)
            kd = reconstruct_kd(p, v.vx, v.vy, 1j * v.vz)
            expected = kd_from_bloch(r)
            for k in range(4):
                assert abs(kd.entries[k] - expected.entries[k]) <= 1e-10

    def test_singular_parameters_rejected_by_name(self):
        p = outcome_table(build_povm(VisibilityTriple(0.6, 0.8, 0.0)), (0, 0, 0))
        with pytest.raises(SingularInversionError, match="c"):
            reconstruct_kd(p, 0.6, 0.8, 0.0)
        with pytest.raises(SingularInversionError, match="vx"):
            reconstruct_kd(p, 0.0, 0.8, 0.5j)
        with pytest.raises(SingularInversionError, match="vy"):
            reconstruct_kd(p, 0.6, 1e-9, 0.5j)

    def test_visibilities_from_floor_to_one_invert_random_tables(self):
        # the inversion scales rounding by 1/|v|; at and above the floor the
        # KD entries still sum to 1 within ATOL_ALGEBRA
        rng = np.random.default_rng(61)
        floor = SINGULAR_VISIBILITY
        for k in range(2000):
            p = rng.dirichlet(np.ones(4)).tolist()
            if k % 2:
                vx, vy, vz = floor * 10.0 ** rng.uniform(0.0, 3.0, size=3)
            else:
                vx = vy = vz = floor
            kd = reconstruct_kd(p, vx, vy, 1j * vz)
            assert abs(sum(kd.entries.tolist()) - 1.0) <= ATOL_ALGEBRA

    @pytest.mark.parametrize("magnitude", [1e-6, 1e-5, 1e-4, 2e-4, 9.99e-4])
    def test_visibilities_below_floor_rejected_by_name(self, magnitude):
        assert magnitude < SINGULAR_VISIBILITY
        p = [0.25] * 4
        for name, args in (
            ("vx", (magnitude, 0.5, 0.5j)),
            ("vy", (0.5, -magnitude, 0.5j)),
            ("c", (0.5, 0.5, 1j * magnitude)),
        ):
            with pytest.raises(SingularInversionError, match=f"parameter {name} = "):
                reconstruct_kd(p, *args)

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_kd([0.3] * 4, 0.5, 0.5, 0.5j)

    def test_statistical_round_trip_within_five_sigma(self):
        v = VisibilityTriple(0.6, 0.7, 0.3)
        shots = 1_000_000
        config = ExperimentConfig(visibilities=v, shots=shots, seed=57)
        counts = run_eigenstate_experiment(config, "X", +1)
        p_hat = counts.counts / shots
        kd_hat = reconstruct_kd(p_hat, v.vx, v.vy, 1j * v.vz)
        expected = kd_from_bloch(bloch_vector("X", +1))
        p_true = outcome_table(build_povm(v), bloch_vector("X", +1))
        for x, y in OUTCOMES4:
            coeffs = {
                (xp, yp): (
                    1.0 + (x * xp) / v.vx + (y * yp) / v.vy - (x * xp * y * yp) / (1j * v.vz)
                )
                / 4.0
                for xp, yp in OUTCOMES4
            }
            # multinomial variance of the complex linear estimator
            mean = sum(coeffs[o] * p_true[k] for k, o in enumerate(OUTCOMES4))
            second = sum(abs(coeffs[o]) ** 2 * p_true[k] for k, o in enumerate(OUTCOMES4))
            sigma = np.sqrt(max(second - abs(mean) ** 2, 0.0) / shots)
            k = OUTCOMES4.index((x, y))
            assert abs(kd_hat.entries[k] - expected.entries[k]) <= 5 * sigma


class TestForwardMap:
    def test_z_plus_through_symmetric_device(self):
        kd = kd_from_bloch(bloch_vector("Z", +1))
        m = error_model_from_visibilities(SQ3, SQ3, 1j * SQ3)
        table = forward_map(kd, m)
        for (x, y), entry in zip(OUTCOMES4, table):
            assert entry == pytest.approx((1 + x * y * SQ3) / 4, abs=1e-12)

    def test_uniform_kd_maps_to_uniform_table(self):
        kd = KDDistribution(entries=[0.25 + 0.0j] * 4)
        m = error_model_from_visibilities(0.9, 0.2, 0.1 + 0.3j)
        table = forward_map(kd, m)
        for entry in table:
            assert entry == pytest.approx(0.25, abs=1e-12)

    def test_ideal_classical_model_is_identity_on_eigenstate_kd(self):
        kd = kd_from_bloch(bloch_vector("X", +1))
        m = error_model_from_visibilities(1.0, 1.0, 1.0)
        table = forward_map(kd, m)
        for k in range(4):
            assert table[k] == pytest.approx(complex(kd.entries[k]).real, abs=1e-12)

    def test_matches_measurement_probabilities(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            while True:
                vx, vy = rng.uniform(0.0, 1.0, size=2)
                vz = rng.uniform(-1.0, 1.0)
                if vx * vx + vy * vy + vz * vz <= 1.0:
                    break
            v = VisibilityTriple(vx, vy, vz)
            r = random_bloch_vector(rng)
            m = error_model_from_visibilities(v.vx, v.vy, 1j * v.vz)
            table = forward_map(kd_from_bloch(r), m)
            expected = outcome_table(build_povm(v), r)
            for k in range(4):
                assert table[k] == pytest.approx(expected[k], abs=1e-10)

    def test_reconstruct_then_forward_returns_table_for_generic_c(self):
        # reconstruct then forward returns the original table for any
        # nonzero complex c, including the real classical teaching cases
        rng = np.random.default_rng(59)
        for _ in range(20):
            raw = rng.uniform(0.05, 1.0, size=4)
            raw /= raw.sum()
            p = raw.tolist()
            vx, vy = rng.uniform(0.3, 1.0, size=2)
            c = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.8))
            kd = reconstruct_kd(p, vx, vy, c)
            m = error_model_from_visibilities(vx, vy, c)
            table = forward_map(kd, m)
            for k in range(4):
                assert table[k] == pytest.approx(p[k], abs=1e-10)

    def test_inverse_of_reconstruct_for_physical_devices(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            kd = kd_from_bloch(random_bloch_vector(rng))
            while True:
                vx, vy = rng.uniform(0.2, 1.0, size=2)
                vz = rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0])
                if vx * vx + vy * vy + vz * vz <= 1.0:
                    break
            m = error_model_from_visibilities(vx, vy, 1j * vz)
            table = forward_map(kd, m)
            back = reconstruct_kd(table, vx, vy, 1j * vz)
            for k in range(4):
                assert abs(back.entries[k] - kd.entries[k]) <= 1e-10

    def test_inconsistent_pair_rejected(self):
        # real correlation weight against an imaginary correlation moment
        kd = kd_from_bloch(bloch_vector("Z", +1))
        m = error_model_from_visibilities(0.2, 0.2, 0.5)
        with pytest.raises(ValueError, match="complex"):
            forward_map(kd, m)


class TestKDValidation:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            KDDistribution(entries=[0.3 + 0.0j] * 4)

    def test_marginals_must_be_real(self):
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        entries = [0.25 + 0.1j, 0.25 + 0.1j, 0.25 - 0.1j, 0.25 - 0.1j]
        with pytest.raises(ValueError, match="marginal"):
            KDDistribution(entries=entries)


class TestOperatorIdentities:
    def test_all_checks_pass(self, monkeypatch):
        result = check_operator_identities(samples=200, seed=20240901)
        assert result.passed and result.detail.startswith("max deviation ")
        # with no tolerance left every identity fails, named in check order
        monkeypatch.setattr(checks, "ATOL_ALGEBRA", -1.0)
        assert check_operator_identities(samples=200, seed=20240901) == CheckResult(
            "operator_identities",
            False,
            "failed: x_times_y_equals_i_z, ideal_operator_is_family_at_vz_i, "
            "ideal_operators_sum_to_identity, ideal_traces_equal_kd_entries",
        )

    def test_summary_lines(self, monkeypatch):
        result = check_operator_identities(samples=10)
        assert result.passed and result.detail.startswith("max deviation ")

        monkeypatch.setattr(checks, "_kd_entries", lambda r: np.full((len(r), 4), np.nan))
        result = check_operator_identities(samples=10)
        assert not result.passed
        assert result.detail == "failed: ideal_traces_equal_kd_entries"

    def test_deterministic_given_seed(self):
        a = check_operator_identities(samples=50, seed=5)
        b = check_operator_identities(samples=50, seed=5)
        assert a == b
