"""Construction and exact statistics of the joint X/Y measurement family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bloch_density,
    density,
    eigenstate,
    element,
    min_eigenvalue_hermitian,
    pair_outcome_probs,
    random_bloch_vector,
    singlet,
    tensor,
    trace_product,
    werner_state,
)
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    PositivityError,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    ideal_operator,
    outcome_table,
)
from xymeas.qubit import ATOL_ALGEBRA, ATOL_EIG, bloch_vector, identity, pauli
from xymeas.simulate import _bloch_components

SQ3 = 1.0 / np.sqrt(3.0)


def valid_triples(step=0.25):
    values = np.arange(0.0, 1.0 + 1e-9, step)
    z_values = np.arange(-1.0, 1.0 + 1e-9, step)
    for vx in values:
        for vy in values:
            for vz in z_values:
                if vx ** 2 + vy ** 2 + vz ** 2 <= 1.0 + 1e-12:
                    yield VisibilityTriple(vx, vy, vz)


visibility_triples = st.builds(
    lambda vx, vy, vz: (vx, vy, vz),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
).filter(lambda t: t[0] ** 2 + t[1] ** 2 + t[2] ** 2 <= 1.0).map(lambda t: VisibilityTriple(*t))


class TestVisibilityTriple:
    def test_positivity_violation_reports_norm(self):
        with pytest.raises(PositivityError, match="1.28"):
            VisibilityTriple(0.8, 0.8, 0.0)

    @pytest.mark.parametrize("bad", [(-0.1, 0, 0), (1.2, 0, 0), (0, -0.5, 0), (0, 0, 1.5)])
    def test_component_ranges(self, bad):
        with pytest.raises(ValueError):
            VisibilityTriple(*bad)

    def test_boundary_accepted(self):
        VisibilityTriple(SQ3, SQ3, SQ3)
        VisibilityTriple(0.0, 0.0, -1.0)


class TestBuildPovm:
    def test_projective_x_limit(self):
        povm = build_povm(VisibilityTriple(1.0, 0.0, 0.0))
        for x, y in OUTCOMES4:
            expected = (identity() + x * pauli("X")) / 4.0
            assert np.allclose(element(povm, x, y), expected, atol=ATOL_ALGEBRA)

    def test_symmetric_point_elements_are_half_projectors(self):
        povm = build_povm(VisibilityTriple(SQ3, SQ3, SQ3))
        for x, y in OUTCOMES4:
            el = element(povm, x, y)
            # eigenvalues (1 +- 1)/4, so 2*el is a rank-1 projector
            assert min_eigenvalue_hermitian(el) == pytest.approx(0.0, abs=ATOL_EIG)
            assert np.allclose((2 * el) @ (2 * el), 2 * el, atol=1e-10)

    @pytest.mark.parametrize("v", list(valid_triples(step=0.5)))
    def test_completeness_and_min_eigenvalue(self, v):
        povm = build_povm(v)
        total = sum(element(povm, *o) for o in OUTCOMES4)
        assert np.max(np.abs(total - identity())) <= ATOL_ALGEBRA
        expected_min = (1.0 - np.sqrt(v.norm_squared)) / 4.0
        for o in OUTCOMES4:
            lam = min_eigenvalue_hermitian(element(povm, *o))
            assert lam == pytest.approx(expected_min, abs=ATOL_EIG)
            assert lam >= -ATOL_EIG


@settings(max_examples=80, deadline=None)
@given(v=visibility_triples)
def test_povm_completeness_property(v):
    povm = build_povm(v)
    total = sum(element(povm, *o) for o in OUTCOMES4)
    assert np.max(np.abs(total - identity())) <= ATOL_ALGEBRA


class TestOutcomeProbs:
    def test_x_plus_input(self):
        povm = build_povm(VisibilityTriple(0.6, 0.8, 0.0))
        p = outcome_table(povm, bloch_vector("X", +1))
        # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
        assert p[0] == pytest.approx(0.4, abs=ATOL_ALGEBRA)
        assert p[1] == pytest.approx(0.4, abs=ATOL_ALGEBRA)
        assert p[2] == pytest.approx(0.1, abs=ATOL_ALGEBRA)
        assert p[3] == pytest.approx(0.1, abs=ATOL_ALGEBRA)

    def test_maximally_mixed_is_uniform(self):
        povm = build_povm(VisibilityTriple(0.5, 0.5, 0.5))
        p = outcome_table(povm, (0, 0, 0))
        for entry in p:
            assert entry == pytest.approx(0.25, abs=ATOL_ALGEBRA)

    def test_z_plus_sees_only_the_correlation(self):
        povm = build_povm(VisibilityTriple(SQ3, SQ3, SQ3))
        p = outcome_table(povm, bloch_vector("Z", +1))
        for (x, y), entry in zip(OUTCOMES4, p):
            assert entry == pytest.approx((1 + x * y * SQ3) / 4.0, abs=ATOL_ALGEBRA)

    def test_marginals_reduce_to_binary_visibility(self):
        rng = np.random.default_rng(23)
        povm = build_povm(VisibilityTriple(0.7, 0.5, 0.2))
        for _ in range(10):
            r = random_bloch_vector(rng)
            p = outcome_table(povm, r)
            mean_x = trace_product(pauli("X"), bloch_density(r)).real
            mean_y = trace_product(pauli("Y"), bloch_density(r)).real
            for x in (+1, -1):
                marginal = p[OUTCOMES4.index((x, +1))] + p[OUTCOMES4.index((x, -1))]
                assert marginal == pytest.approx((1 + x * 0.7 * mean_x) / 2, abs=1e-10)
            for y in (+1, -1):
                marginal = p[OUTCOMES4.index((+1, y))] + p[OUTCOMES4.index((-1, y))]
                assert marginal == pytest.approx((1 + y * 0.5 * mean_y) / 2, abs=1e-10)

    def test_invalid_state_rejected(self):
        povm = build_povm(VisibilityTriple(0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="outcome table: entries must be finite"):
            outcome_table(povm, (np.nan, 0.0, 0.0))
        with pytest.raises(ValueError):
            outcome_table(povm, (0.0, 1.0))

    def test_z_eigenstates_read_the_diagonal_exactly(self):
        for v in valid_triples():
            povm = build_povm(v)
            assert outcome_table(povm, bloch_vector("Z", +1)).tobytes() == povm[:, 0, 0].real.tobytes()
            assert outcome_table(povm, bloch_vector("Z", -1)).tobytes() == povm[:, 1, 1].real.tobytes()

    def test_x_and_y_eigenstates_are_bloch_rows_to_the_bit(self):
        # the Bloch-component form (Tr E + value Tr E sigma) / 2, bit for bit
        for v in valid_triples():
            povm = build_povm(v)
            t, bx, by, _ = _bloch_components(povm)
            for axis, b in (("X", bx), ("Y", by)):
                for value in (+1, -1):
                    table = outcome_table(povm, bloch_vector(axis, value))
                    assert table.tobytes() == ((t + value * b) / 2.0).tobytes()


class TestPairOutcomeProbs:
    @pytest.mark.parametrize("v", list(valid_triples(step=0.5)))
    def test_singlet_closed_form(self, v):
        povm = build_povm(v)
        p = pair_outcome_probs(povm, povm, density(singlet()))
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, p):
            expected = (
                1.0
                - x1 * x2 * v.vx ** 2
                - y1 * y2 * v.vy ** 2
                - x1 * x2 * y1 * y2 * v.vz ** 2
            ) / 16.0
            assert entry == pytest.approx(expected, abs=ATOL_ALGEBRA)

    def test_blind_device_is_uniform(self):
        povm = build_povm(VisibilityTriple(0.0, 0.0, 0.0))
        p = pair_outcome_probs(povm, povm, werner_state(0.37))
        for entry in p:
            assert entry == pytest.approx(1.0 / 16.0, abs=ATOL_ALGEBRA)

    def test_symmetric_point_kills_repeated_outcomes(self):
        povm = build_povm(VisibilityTriple(SQ3, SQ3, SQ3))
        p = pair_outcome_probs(povm, povm, density(singlet()))
        for x, y in OUTCOMES4:
            assert p[OUTCOMES16.index((x, y, x, y))] == pytest.approx(0.0, abs=ATOL_ALGEBRA)

    def test_outcome_depends_only_on_pattern_class(self):
        povm = build_povm(VisibilityTriple(0.5, 0.4, 0.6))
        p = pair_outcome_probs(povm, povm, density(singlet()))
        by_pattern = {}
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, p):
            r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
            by_pattern.setdefault(r, []).append(entry)
        for r, values in by_pattern.items():
            assert len(values) == 4
            assert max(values) - min(values) <= ATOL_ALGEBRA

    def test_different_devices_allowed(self):
        povm1 = build_povm(VisibilityTriple(0.9, 0.1, 0.0))
        povm2 = build_povm(VisibilityTriple(0.1, 0.9, 0.0))
        p = pair_outcome_probs(povm1, povm2, density(singlet()))
        assert sum(p) == pytest.approx(1.0, abs=ATOL_ALGEBRA)

    def test_invalid_pair_state_rejected(self):
        povm = build_povm(VisibilityTriple(0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            pair_outcome_probs(povm, povm, np.eye(4))


    def test_elements_are_one_read_only_stack(self):
        elements = build_povm(VisibilityTriple(0.5, 0.4, 0.3))
        assert isinstance(elements, np.ndarray)
        assert elements.shape == (4, 2, 2) and elements.dtype == complex
        assert not elements.flags.writeable
        for k, (x, y) in enumerate(OUTCOMES4):
            assert np.array_equal(element(elements, x, y), elements[k])


def random_pair_density(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def random_unit_vector(seed: int) -> np.ndarray:
    r = np.random.default_rng(seed).normal(size=3)
    return r / np.linalg.norm(r)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
bloch_vectors = st.one_of(
    st.sampled_from([bloch_vector(a, s) for a in "XYZ" for s in (+1, -1)]),
    seeds.map(lambda s: random_bloch_vector(np.random.default_rng(s))),
    seeds.map(random_unit_vector),
)
pair_states = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(werner_state),
    seeds.map(random_pair_density),
)


@settings(max_examples=300, deadline=None)
@given(v1=visibility_triples, v2=visibility_triples, r=bloch_vectors, rho4=pair_states)
def test_stacked_tables_equal_per_element_reference(v1, v2, r, rho4):
    """The Bloch table is the per-element trace to 1e-15; one stacked pair product is bit for bit."""
    povm1, povm2 = build_povm(v1), build_povm(v2)
    single = [trace_product(element(povm1, *o), bloch_density(r)) for o in OUTCOMES4]
    assert np.max(np.abs(outcome_table(povm1, r) - np.real(single))) <= 1e-15
    for a, b in ((povm1, povm2), (povm2, povm1), (povm1, povm1)):
        pair = [
            trace_product(tensor(element(a, x1, y1), element(b, x2, y2)), rho4)
            for x1, y1, x2, y2 in OUTCOMES16
        ]
        assert np.array_equal(pair_outcome_probs(a, b, rho4), np.real(pair))


class TestExactPatternProbs:
    def test_symmetric_point(self):
        e = exact_pattern_probs(VisibilityTriple(SQ3, SQ3, SQ3))
        # PATTERNS order: (0, 0), (0, 1), (1, 0), (1, 1)
        assert e[0] == pytest.approx(1.0 / 12.0, abs=ATOL_ALGEBRA)
        assert e[1] == pytest.approx(1.0 / 12.0, abs=ATOL_ALGEBRA)
        assert e[2] == pytest.approx(1.0 / 12.0, abs=ATOL_ALGEBRA)
        assert e[3] == pytest.approx(0.0, abs=ATOL_ALGEBRA)

    def test_z_blind_device(self):
        e = exact_pattern_probs(VisibilityTriple(0.6, 0.8, 0.0))
        assert e[0] == pytest.approx(0.125, abs=ATOL_ALGEBRA)
        assert e[1] == pytest.approx(0.045, abs=ATOL_ALGEBRA)
        assert e[2] == pytest.approx(0.08, abs=ATOL_ALGEBRA)
        assert e[3] == pytest.approx(0.0, abs=ATOL_ALGEBRA)

    def test_fully_random_device(self):
        e = exact_pattern_probs(VisibilityTriple(0.0, 0.0, 0.0))
        for entry in e:
            assert entry == pytest.approx(1.0 / 16.0, abs=ATOL_ALGEBRA)

    @pytest.mark.parametrize("v", list(valid_triples(step=0.5)))
    def test_matches_pair_probabilities(self, v):
        e = exact_pattern_probs(v)
        povm = build_povm(v)
        p = pair_outcome_probs(povm, povm, density(singlet()))
        for (x1, y1, x2, y2), entry in zip(OUTCOMES16, p):
            r = (0 if x1 == -x2 else 1, 0 if y1 == -y2 else 1)
            assert entry == pytest.approx(e[PATTERNS.index(r)], abs=ATOL_ALGEBRA)

    @pytest.mark.parametrize("v", list(valid_triples(step=0.5)))
    def test_normalization(self, v):
        e = exact_pattern_probs(v)
        assert 4.0 * sum(e) == pytest.approx(1.0, abs=ATOL_ALGEBRA)


class TestIdealOperator:
    @pytest.mark.parametrize("sx,sy", OUTCOMES4)
    def test_entries_are_exact(self, sx, sy):
        # (I + sx X)(I + sy Y) = I + sx X + sy Y + i sx sy Z, every entry a sum of 0, +-1 and +-i
        expected = identity() + sx * pauli("X") + sy * pauli("Y") + 1j * sx * sy * pauli("Z")
        assert np.array_equal(ideal_operator(sx, sy), expected / 4.0)

    def test_completeness(self):
        total = sum(ideal_operator(sx, sy) for sx, sy in OUTCOMES4)
        assert np.max(np.abs(total - identity())) <= ATOL_ALGEBRA

    @pytest.mark.parametrize("sx,sy", OUTCOMES4)
    def test_trace_on_z_plus(self, sx, sy):
        value = trace_product(ideal_operator(sx, sy), density(eigenstate("Z", +1)))
        assert abs(value - (1.0 + 1j * sx * sy) / 4.0) <= ATOL_ALGEBRA

    @pytest.mark.parametrize("sx,sy", OUTCOMES4)
    def test_hermiticity_defect(self, sx, sy):
        op = ideal_operator(sx, sy)
        defect = op - op.conj().T
        assert np.max(np.abs(defect)) > 0.1
        assert np.allclose(defect, 1j * sx * sy * pauli("Z") / 2.0, atol=ATOL_ALGEBRA)
        assert np.linalg.norm(defect, 2) == pytest.approx(0.5, abs=ATOL_ALGEBRA)

    def test_invalid_signs_rejected(self):
        with pytest.raises(ValueError):
            ideal_operator(0, 1)
