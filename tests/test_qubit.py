"""Pauli algebra, Bloch vectors, and the ket and density-matrix references in ``oracles``."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    density,
    eigenstate,
    is_hermitian,
    min_eigenvalue_hermitian,
    singlet,
    tensor,
    trace_product,
)
from xymeas import qubit
from xymeas.fileio import named_state_bloch
from xymeas.qubit import ATOL_ALGEBRA, ATOL_EIG, bloch_vector, identity, pauli

AXES = ("X", "Y", "Z")


def random_hermitian(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_pure_state(rng, dim=2):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestPauli:
    def test_z_is_diagonal(self):
        assert np.array_equal(pauli("Z"), np.diag([1.0 + 0j, -1.0 + 0j]))

    @pytest.mark.parametrize("axis", AXES)
    def test_involution(self, axis):
        assert np.allclose(pauli(axis) @ pauli(axis), identity(), atol=ATOL_ALGEBRA)

    def test_xy_is_i_z(self):
        assert np.allclose(pauli("X") @ pauli("Y"), 1j * pauli("Z"), atol=ATOL_ALGEBRA)

    @pytest.mark.parametrize("a,b,c", [("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")])
    def test_cyclic_products(self, a, b, c):
        assert np.allclose(pauli(a) @ pauli(b), 1j * pauli(c), atol=ATOL_ALGEBRA)

    def test_elementwise_product_is_the_matrix_product(self):
        for a, b in itertools.product(AXES, repeat=2):
            assert np.array_equal(qubit._product(pauli(a), pauli(b)), pauli(a) @ pauli(b))
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            assert np.max(np.abs(qubit._product(a, b) - a @ b)) <= 1e-14

    @pytest.mark.parametrize("a,b", list(itertools.combinations(AXES, 2)))
    def test_anticommutators_vanish(self, a, b):
        anti = pauli(a) @ pauli(b) + pauli(b) @ pauli(a)
        assert np.max(np.abs(anti)) <= ATOL_ALGEBRA

    @pytest.mark.parametrize("axis", AXES)
    def test_hermitian_traceless(self, axis):
        m = pauli(axis)
        assert is_hermitian(m)
        assert abs(np.trace(m)) <= ATOL_ALGEBRA

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            pauli("W")


class TestEigenstate:
    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("value", [+1, -1])
    def test_eigen_relation(self, axis, value):
        psi = eigenstate(axis, value)
        assert np.allclose(pauli(axis) @ psi, value * psi, atol=ATOL_ALGEBRA)

    def test_conventions(self):
        assert np.array_equal(eigenstate("Z", +1), [1, 0])
        assert np.allclose(eigenstate("X", +1), np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(eigenstate("Y", +1), np.array([1, 1j]) / np.sqrt(2))

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("value", [+1, -1])
    def test_phase_convention_first_amplitude_positive(self, axis, value):
        psi = eigenstate(axis, value)
        first = psi[np.flatnonzero(np.abs(psi) > 0)[0]]
        assert abs(first.imag) <= ATOL_ALGEBRA and first.real > 0

    @pytest.mark.parametrize("x", [+1, -1])
    @pytest.mark.parametrize("y", [+1, -1])
    def test_mutually_unbiased(self, x, y):
        # independent oracle: the inner product itself
        overlap = np.vdot(eigenstate("X", x), eigenstate("Y", y))
        assert abs(abs(overlap) ** 2 - 0.5) <= ATOL_ALGEBRA

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            eigenstate("X", 2)
        with pytest.raises(ValueError):
            bloch_vector("X", 0)
        with pytest.raises(ValueError):
            bloch_vector("W", +1)

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("value", [+1, -1])
    def test_bloch_vector_is_the_kets_state(self, axis, value):
        r = bloch_vector(axis, value)
        assert r.dtype.kind == "i" and r.tolist() == [value * (a == axis) for a in AXES]
        assert np.max(np.abs(oracles.bloch_density(r) - density(eigenstate(axis, value)))) <= ATOL_ALGEBRA
        # a probability file names the same state by its label
        assert named_state_bloch(f"{axis}{'+' if value == +1 else '-'}").tolist() == r.tolist()

    def test_named_mixed_state_is_the_origin(self):
        r = named_state_bloch("mixed")
        assert r.dtype.kind == "i" and r.tolist() == [0, 0, 0]
        assert np.array_equal(oracles.bloch_density(r), identity() / 2)
        with pytest.raises(ValueError, match="expected one of"):
            named_state_bloch("Q+")


class TestSinglet:
    def test_normalized(self):
        psi = singlet()
        assert abs(np.vdot(psi, psi) - 1.0) <= ATOL_ALGEBRA

    @pytest.mark.parametrize("axis", AXES)
    def test_pair_correlations_are_minus_one(self, axis):
        psi = singlet()
        op = tensor(pauli(axis), pauli(axis))
        assert abs(np.vdot(psi, op @ psi) + 1.0) <= ATOL_ALGEBRA

    def test_equal_precise_outcomes_never_coincide(self):
        # oracle: amplitude of |x+, x+> in the singlet
        both_plus = np.kron(eigenstate("X", +1), eigenstate("X", +1))
        assert abs(np.vdot(both_plus, singlet())) ** 2 <= ATOL_ALGEBRA

    def test_invariant_under_common_unitary(self):
        rng = np.random.default_rng(7)
        psi = singlet()
        for _ in range(20):
            u = random_unitary(rng)
            overlap = np.vdot(psi, np.kron(u, u) @ psi)
            assert abs(abs(overlap) - 1.0) <= ATOL_EIG


class TestTensor:
    def test_identity_factors(self):
        assert np.array_equal(tensor(identity(), identity()), np.eye(4))

    def test_zz_diagonal(self):
        assert np.allclose(tensor(pauli("Z"), pauli("Z")), np.diag([1, -1, -1, 1]))

    def test_trace_multiplicative_on_product_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hermitian(rng)
            b = random_hermitian(rng)
            rho_a = density(random_pure_state(rng))
            rho_b = density(random_pure_state(rng))
            lhs = trace_product(tensor(a, b), tensor(rho_a, rho_b))
            rhs = trace_product(a, rho_a) * trace_product(b, rho_b)
            assert abs(lhs - rhs) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor(identity(), np.eye(4))


class TestTraceProduct:
    def test_identity_against_unit_trace(self):
        rho = density(eigenstate("Y", -1))
        assert abs(trace_product(identity(), rho) - 1.0) <= ATOL_ALGEBRA

    def test_eigenvalue_readout(self):
        rho = density(eigenstate("Z", +1))
        assert abs(trace_product(pauli("Z"), rho) - 1.0) <= ATOL_ALGEBRA

    def test_ordered_xy_product_is_imaginary(self):
        rho = density(eigenstate("Z", +1))
        assert abs(trace_product(pauli("X") @ pauli("Y"), rho) - 1j) <= ATOL_ALGEBRA

    def test_real_for_hermitian_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            value = trace_product(random_hermitian(rng), density(random_pure_state(rng)))
            assert abs(value.imag) <= 1e-10

    def test_bilinear(self):
        rng = np.random.default_rng(5)
        a, b, rho = (random_hermitian(rng) for _ in range(3))
        alpha, beta = 0.7, -1.3
        lhs = trace_product(alpha * a + beta * b, rho)
        rhs = alpha * trace_product(a, rho) + beta * trace_product(b, rho)
        assert abs(lhs - rhs) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_product(identity(), np.eye(4))


class TestDensity:
    def test_z_plus(self):
        assert np.array_equal(density(eigenstate("Z", +1)), np.diag([1.0 + 0j, 0.0 + 0j]))

    def test_singlet_trace(self):
        assert abs(np.trace(density(singlet())) - 1.0) <= ATOL_ALGEBRA

    def test_pure_states_idempotent(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            for _ in range(10):
                rho = density(random_pure_state(rng, dim))
                assert np.max(np.abs(rho @ rho - rho)) <= ATOL_ALGEBRA

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            density(np.array([1.0, 1.0]))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue_hermitian(identity()) == pytest.approx(1.0, abs=ATOL_EIG)

    def test_pauli_x(self):
        assert min_eigenvalue_hermitian(pauli("X")) == pytest.approx(-1.0, abs=ATOL_EIG)

    def test_unit_bloch_vector_element(self):
        # closed-form 2x2 eigenvalues (1 +- |v|)/4 with |v| = 1
        m = (identity() + (pauli("X") + pauli("Y") + pauli("Z")) / np.sqrt(3)) / 4.0
        assert min_eigenvalue_hermitian(m) == pytest.approx(0.0, abs=ATOL_EIG)

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(17)
        for dim in (2, 4):
            for _ in range(20):
                m = random_hermitian(rng, dim)
                expected = float(np.linalg.eigvalsh(m)[0])
                assert min_eigenvalue_hermitian(m) == pytest.approx(expected, abs=ATOL_EIG)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@st.composite
def hermitian_2x2_stacks(draw):
    """(n, 2, 2) Hermitian stacks whose rows often have ``b = 0`` or ``a = d``."""
    real = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    maybe_zero = st.one_of(st.just(0.0), real)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a = draw(real)
        d = draw(st.one_of(st.just(a), real))
        b = complex(draw(maybe_zero), draw(maybe_zero))
        rows.append([[a, b], [b.conjugate(), d]])
    return np.array(rows, dtype=complex)


@st.composite
def boundary_triples(draw):
    """(n, 3) triples with vx, vy >= 0 and vx^2 + vy^2 + vz^2 = 1, axes and diagonals included."""
    special = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 1.0, 1.0)])
    direction = st.tuples(*(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),) * 3)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        v = np.array(draw(st.one_of(special, direction)))
        v[:2] = np.abs(v[:2])
        if np.linalg.norm(v) < 1e-3:
            v = np.array([0.0, 0.0, 1.0])
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


class TestStackedMinEigenvalue:
    @settings(max_examples=100, deadline=None)
    @given(stack=hermitian_2x2_stacks())
    def test_matches_batched_eigvalsh(self, stack):
        lowest = min_eigenvalue_hermitian(stack)
        assert lowest.shape == (len(stack),)
        assert np.max(np.abs(lowest - np.linalg.eigvalsh(stack)[:, 0])) <= 1e-12
        # a stack gives each matrix's single-matrix value, digit for digit
        assert lowest.tolist() == [min_eigenvalue_hermitian(m) for m in stack]

    @settings(max_examples=50, deadline=None)
    @given(v=boundary_triples())
    def test_boundary_family_elements_are_rank_deficient(self, v):
        from xymeas.povm import _family_elements

        elements = _family_elements(v)
        lowest = min_eigenvalue_hermitian(elements)
        assert lowest.shape == (len(v), 4)
        assert np.max(np.abs(lowest - np.linalg.eigvalsh(elements)[..., 0])) <= 1e-12
        assert np.max(np.abs(lowest)) <= ATOL_EIG

    def test_leading_axes_kept_and_4x4_stacks(self):
        rng = np.random.default_rng(5)
        stack2 = np.array([[random_hermitian(rng) for _ in range(3)] for _ in range(2)])
        assert min_eigenvalue_hermitian(stack2).shape == (2, 3)
        stack4 = np.array([random_hermitian(rng, 4) for _ in range(5)])
        assert np.allclose(min_eigenvalue_hermitian(stack4), np.linalg.eigvalsh(stack4)[:, 0], atol=1e-12)
        assert isinstance(min_eigenvalue_hermitian(stack2[0, 0]), float)

    def test_non_hermitian_member_rejected(self):
        stack = np.array([identity(), identity(), [[0, 1], [0, 0]]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            min_eigenvalue_hermitian(stack)


class TestStackedDensityMatrices:
    def test_valid_stack_returned(self):
        stack = np.array([density(eigenstate(a, s)) for a in AXES for s in (+1, -1)])
        assert oracles.ensure_density_matrix(stack, dim=2) is not None
        assert is_hermitian(stack)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda m: m + np.array([[0, 1e-6], [0, 0]]), "not Hermitian"),
            (lambda m: 1.5 * m, r"unit trace: trace = \(1\.5\+0j\)"),
            (lambda m: np.diag([1.5, -0.5]), "positive"),
        ],
        ids=["hermitian", "trace", "positive"],
    )
    def test_one_bad_member_rejects_the_stack(self, spoil, message):
        stack = np.array([density(eigenstate("Z", +1))] * 4)
        stack[2] = spoil(stack[2])
        with pytest.raises(ValueError, match=message):
            oracles.ensure_density_matrix(stack)

    def test_empty_stack_accepted(self):
        assert oracles.ensure_density_matrix(np.zeros((0, 2, 2)), dim=2).shape == (0, 2, 2)

    def test_single_matrix_functions_reject_stacks(self):
        stack = np.array([identity()] * 2)
        with pytest.raises(ValueError, match="2x2 or 4x4 matrix"):
            trace_product(stack, stack)


@settings(max_examples=50, deadline=None)
@given(
    axis=st.sampled_from(AXES),
    value=st.sampled_from([+1, -1]),
    coeff=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_trace_product_linear_in_scaled_projectors(axis, value, coeff):
    rho = density(eigenstate(axis, value))
    m = pauli(axis)
    lhs = trace_product(coeff * m + identity(), rho)
    rhs = coeff * trace_product(m, rho) + 1.0
    assert abs(lhs - rhs) <= 1e-10


def test_validators_reject_nonfinite():
    with pytest.raises(ValueError):
        oracles.ensure_state_vector(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        oracles.ensure_density_matrix(np.full((2, 2), np.inf))
