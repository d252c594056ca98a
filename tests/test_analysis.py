"""Visibility and correlation estimators, error-model algebra, classicality."""

import math
import re
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ErrorModel,
    eigenstate_probs_from_error_model,
    error_model_from_visibilities,
    pattern_of,
    predicted_pattern_probs,
    visibilities_from_error_model,
)
from xymeas.analysis import (
    MIN_WERNER_P,
    Estimate,
    estimate_visibility,
    is_classical,
    pattern_cells,
    pattern_estimates,
)
from xymeas.checks import classicality_statistic
from xymeas.fileio import read_counts_document, read_document
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    VisibilityTriple,
    _hadamard,
    build_povm,
    exact_pattern_probs,
    outcome_table,
)
from xymeas.qubit import bloch_vector
from xymeas.simulate import (
    ExperimentConfig,
    OutcomeCounts4,
    PairCounts16,
    run_eigenstate_experiment,
    run_pair_experiment,
)

SQ3 = 1.0 / np.sqrt(3.0)
GOLDEN = Path(__file__).resolve().parent / "golden"


def decimal_stderr(f, total):
    """``sqrt(f (1 - f) / total)`` of a fraction ``f`` of ``total`` shots, in 40-digit decimal arithmetic."""
    with localcontext() as context:
        context.prec = 40
        f = Decimal(f)
        return float((f * (1 - f) / total).sqrt())


# one shot of 10^12 away from the rest: there 1 - m^2 of the rounded m = row / N
# cancels to a relative error of 1e-5, where the integer rows keep every digit
HUGE = 10 ** 12


def shot_counts(probs, shots=1_000_000):
    """An outcome table as the integer counts of ``shots`` shots, exact where each entry is a multiple of 1/shots."""
    return np.rint(np.asarray(probs) * shots).astype(int)


class TestVisibilityEstimates:
    def test_configured_value_recovered_exactly(self):
        counts = OutcomeCounts4(
            # OUTCOMES4 order: (+1, +1), (+1, -1), (-1, +1), (-1, -1)
            counts=[400_000, 400_000, 100_000, 100_000],
            input_axis="X",
            input_value=+1,
        )
        est = estimate_visibility(counts)
        assert est.value == pytest.approx(0.6, abs=1e-15)
        assert est.stderr == pytest.approx(2 * np.sqrt(0.8 * 0.2 / 1e6), rel=1e-12)

    def test_perfect_and_uniform(self):
        perfect = OutcomeCounts4(
            counts=[60, 40, 0, 0],
            input_axis="X",
            input_value=+1,
        )
        # every shot on the input's side: the empty side gets the rule-of-three 3/N
        est = estimate_visibility(perfect)
        assert (est.value, est.stderr) == (1.0, 6.0 / 100)
        uniform = OutcomeCounts4(counts=[25] * 4, input_axis="X", input_value=+1)
        assert estimate_visibility(uniform).value == pytest.approx(0.0)

    def test_vy_mirror(self):
        probs = outcome_table(build_povm(VisibilityTriple(0.6, 0.8, 0.0)), bloch_vector("Y", +1))
        counts = OutcomeCounts4(counts=shot_counts(probs), input_axis="Y", input_value=+1)
        est = estimate_visibility(counts)
        assert est.value == pytest.approx(0.8, abs=1e-12)

    def test_negative_input_value_counts_correctly(self):
        probs = outcome_table(build_povm(VisibilityTriple(0.7, 0.2, 0.0)), bloch_vector("X", -1))
        counts = OutcomeCounts4(counts=shot_counts(probs), input_axis="X", input_value=-1)
        assert estimate_visibility(counts).value == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("vx,vy", [(0.3, 0.9), (0.6, 0.8), (1.0, 0.0)])
    def test_exact_consistency_over_inputs(self, vx, vy):
        povm = build_povm(VisibilityTriple(vx, vy, 0.0))
        for value in (+1, -1):
            for axis, v in (("X", vx), ("Y", vy)):
                probs = outcome_table(povm, bloch_vector(axis, value))
                counts = OutcomeCounts4(counts=shot_counts(probs), input_axis=axis, input_value=value)
                assert estimate_visibility(counts).value == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("source", ["x.counts", "y.counts", "balanced"])
    def test_value_is_the_correctly_rounded_count_contrast(self, source):
        # (n_correct - n_wrong) / N in one rounding, as Python divides two ints;
        # str() also tells 0.0 from -0.0
        if source == "balanced":
            table = [30, 20, 20, 30]
        else:
            table = read_counts_document(read_document(GOLDEN / source)).counts.counts.tolist()
        for axis, k in (("X", 0), ("Y", 1)):
            for value in (+1, -1):
                counts = OutcomeCounts4(counts=table, input_axis=axis, input_value=value)
                correct = sum(n for o, n in zip(OUTCOMES4, table) if o[k] == value)
                wrong = sum(table) - correct
                assert str(estimate_visibility(counts).value) == str((correct - wrong) / sum(table))

    @pytest.mark.parametrize("value", [+1, -1])
    def test_near_perfect_stderr_keeps_full_precision(self, value):
        # the contrast m = 2f - 1 has stderr sqrt((1 - m^2) / N) = 2 sqrt(f (1 - f) / N)
        table = [HUGE - 1, 0, 1, 0] if value == +1 else [1, 0, HUGE - 1, 0]
        est = estimate_visibility(OutcomeCounts4(counts=table, input_axis="X", input_value=value))
        assert est.value == (HUGE - 2) / HUGE
        assert est.stderr == pytest.approx(2 * decimal_stderr(Decimal(HUGE - 1) / HUGE, HUGE), rel=1e-12)

    @pytest.mark.parametrize("flips", [False, True])
    def test_stderr_matches_replicate_spread(self, flips):
        # 400 seeded X+ runs of 20000 shots through the sampler: the vx z-score has unit spread
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        z = []
        for seed in range(400):
            config = ExperimentConfig(v, 20_000, seed)
            est = estimate_visibility(run_eigenstate_experiment(config, "X", +1, randomize_flips=flips))
            z.append((est.value - v.vx) / est.stderr)
        assert 0.9 <= np.std(z) <= 1.1, np.std(z)

    def test_stderr_scales_with_shots(self):
        v = VisibilityTriple(0.6, 0.8, 0.0)
        small = run_eigenstate_experiment(
            ExperimentConfig(visibilities=v, shots=10_000, seed=41), "X", +1
        )
        large = run_eigenstate_experiment(
            ExperimentConfig(visibilities=v, shots=1_000_000, seed=42), "X", +1
        )
        ratio = estimate_visibility(small).stderr / estimate_visibility(large).stderr
        assert 9.0 < ratio < 11.0


def cell_values(cells):
    return [cell.value for cell in cells]


def cell_stderrs(cells):
    return [cell.stderr for cell in cells]


class TestCollapsePairCounts:
    """16 pair-outcome counts collapsed to the four pattern cells of `pattern_cells`."""

    def test_single_anticorrelated_shot(self):
        counts = [0] * 16
        counts[OUTCOMES16.index((+1, +1, -1, -1))] = 1
        e = cell_values(pattern_cells(PairCounts16(counts=counts)))
        assert e[0] == pytest.approx(0.25)
        assert e[1] == e[2] == e[3] == 0.0

    def test_exact_probs_match_closed_form(self):
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        from oracles import density, family_operators, pair_outcome_probs, singlet

        povm = family_operators(v)
        # at the symmetric point each pair outcome has probability 1/12 or 0
        probs = pair_outcome_probs(povm, povm, density(singlet()))
        cells = pattern_cells(PairCounts16(counts=shot_counts(probs, 1200)))
        exact = exact_pattern_probs(v)
        for k in range(4):
            assert cells[k].value == pytest.approx(exact[k], abs=1e-12)
        # binomial spread of a 1/3 class; rule of three for the empty (1, 1) class
        binomial = np.sqrt((1 / 3) * (2 / 3) / 1200) / 4
        assert cell_stderrs(cells) == pytest.approx([binomial] * 3 + [(3 / 1200) / 4], rel=1e-12)

    def test_uniform_counts(self):
        cells = pattern_cells(
            PairCounts16(counts=[100] * 16)
        )
        for entry in cell_values(cells):
            assert entry == pytest.approx(1 / 16, abs=1e-12)

    def test_zero_count_pattern_gets_rule_of_three(self):
        counts = [0] * 16
        counts[OUTCOMES16.index((+1, +1, -1, -1))] = 1000
        cells = pattern_cells(PairCounts16(counts=counts))
        assert cells[3].stderr == pytest.approx((3 / 1000) / 4)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    @pytest.mark.parametrize("shots", [1, 1000])
    def test_full_class_gets_rule_of_three(self, p, shots):
        # every shot in pattern (0, 0): the full class, like the three empty ones, reads 3/N of it
        counts = [0] * 16
        counts[OUTCOMES16.index((+1, +1, -1, -1))] = shots
        assert cell_stderrs(pattern_cells(PairCounts16(counts=counts), p)) == [0.75 / shots / p] * 4

    def test_pattern_of(self):
        assert pattern_of(+1, +1, -1, -1) == (0, 0)
        assert pattern_of(+1, +1, -1, +1) == (0, 1)
        assert pattern_of(+1, +1, +1, -1) == (1, 0)
        assert pattern_of(+1, +1, +1, +1) == (1, 1)


def exact_rows(v):
    """``(1, vy^2, vx^2, c^2)``: the rows ``4 * H e`` of the exact pattern table of ``v``."""
    return (4.0 * _hadamard(exact_pattern_probs(v))).tolist()


def pattern_counts(class_counts):
    """A pair record whose pattern classes hold ``class_counts`` shots (``PATTERNS`` order)."""
    counts = [0] * 16
    for pattern, n in zip(PATTERNS, class_counts):
        counts[next(k for k, o in enumerate(OUTCOMES16) if pattern_of(*o) == pattern)] = n
    return PairCounts16(counts=counts)


class TestPatternSums:
    def test_symmetric_point(self):
        _, vy2, vx2, c2 = exact_rows(VisibilityTriple(SQ3, SQ3, SQ3))
        assert vx2 == pytest.approx(1 / 3, abs=1e-12)
        assert vy2 == pytest.approx(1 / 3, abs=1e-12)
        assert c2 == pytest.approx(-1 / 3, abs=1e-12)
        assert np.sqrt(-c2) == pytest.approx(SQ3, abs=1e-12)
        assert is_classical(Estimate(c2, 0.0)) is False

    def test_z_blind_device(self):
        _, vy2, vx2, c2 = exact_rows(VisibilityTriple(0.6, 0.8, 0.0))
        assert vx2 == pytest.approx(0.36, abs=1e-12)
        assert vy2 == pytest.approx(0.64, abs=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-12)
        assert is_classical(Estimate(c2, 0.0)) is True

    def test_uniform_patterns(self):
        vx2, vy2, _ = pattern_estimates(PairCounts16(counts=[25] * 16))
        assert vx2.value == 0.0
        assert vy2.value == 0.0

    def test_ideal_classical_device(self):
        # every shot in pattern (0, 0); PATTERNS order: (0, 0), (0, 1), (1, 0), (1, 1)
        counts = pattern_counts([1000, 0, 0, 0])
        _, _, corr = pattern_estimates(counts)
        assert corr.value == 1.0
        assert is_classical(corr) is True
        assert classicality_statistic(cell_values(pattern_cells(counts))) == pytest.approx(-0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "v",
        [
            VisibilityTriple(SQ3, SQ3, SQ3),
            VisibilityTriple(0.5, 0.5, 0.5),
            VisibilityTriple(0.0, 0.0, 1.0),
            VisibilityTriple(0.9, 0.1, 0.2),
        ],
    )
    def test_quantum_statistic_is_vz_squared_over_four(self, v):
        e = exact_pattern_probs(v)
        assert classicality_statistic(e) == pytest.approx(v.vz ** 2 / 4, abs=1e-12)
        assert exact_rows(v)[3] == pytest.approx(-v.vz ** 2, abs=1e-12)

    def test_boundary_vz_zero(self):
        e = exact_pattern_probs(VisibilityTriple(0.7, 0.7, 0.0))
        assert classicality_statistic(e) == pytest.approx(0.0, abs=1e-12)

    def test_each_estimate_has_its_own_multinomial_stderr(self):
        # class fractions (0.5, 0.25, 0.15, 0.1) of 1000 shots: rows (vy^2, vx^2, c^2) = (0.3, 0.5, 0.2)
        counts = pattern_counts([500, 250, 150, 100])
        for p in (1.0, 0.5):
            estimates = pattern_estimates(counts, p)
            for est, row in zip(estimates, (0.5, 0.3, 0.2)):
                assert est.value == pytest.approx(row / p, abs=1e-12)
                assert est.stderr == pytest.approx(math.sqrt((1.0 - row ** 2) / 1000) / p, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_one_sided_row_gets_rule_of_three(self, p):
        # every shot in pattern (0, 0): each row reads 1 with an empty other side, 3/N of it
        ideal = pattern_counts([1000, 0, 0, 0])
        assert [e.stderr for e in pattern_estimates(ideal, p)] == [6.0 / 1000 / p] * 3

    def test_near_one_sided_rows_and_cells_keep_full_precision(self):
        # classes (0, 0) and (0, 1) share the x character, so that row is one-sided
        counts = pattern_counts([HUGE - 1, 1, 0, 0])
        vx2, vy2, c2 = pattern_estimates(counts)
        assert vx2.stderr == 6.0 / HUGE
        reference = decimal_stderr(Decimal(HUGE - 1) / HUGE, HUGE)
        assert [vy2.stderr, c2.stderr] == pytest.approx([2 * reference] * 2, rel=1e-12)
        # a cell e = f / 4 of a class with f = (N - 1) / N or 1 / N
        cells = pattern_cells(counts)
        assert [cell.stderr for cell in cells[:2]] == pytest.approx([reference / 4] * 2, rel=1e-12)

    def test_single_pair_shot_is_classical(self):
        # one anticorrelated shot in pattern (0, 1) reads c^2 = -1, but one shot proves nothing
        counts = [0] * 16
        counts[OUTCOMES16.index((+1, +1, -1, +1))] = 1
        _, _, corr = pattern_estimates(PairCounts16(counts=counts))
        assert corr.value == -1.0
        assert corr.stderr == 6.0
        assert is_classical(corr) is True

    @pytest.mark.parametrize("werner_p", [1.0, 0.8])
    def test_stderr_matches_replicate_spread(self, werner_p):
        # 400 seeded pair runs of 20000 shots: each estimate's z-score has unit spread
        v = VisibilityTriple(SQ3, SQ3, SQ3)
        exact = np.array([v.vx ** 2, v.vy ** 2, -v.vz ** 2])
        z = []
        for seed in range(400):
            counts = run_pair_experiment(ExperimentConfig(v, 20_000, seed), werner_p=werner_p)
            estimates = pattern_estimates(counts, werner_p)
            z.append([(e.value - x) / e.stderr for e, x in zip(estimates, exact)])
        spread = np.std(z, axis=0)
        assert np.all((0.9 <= spread) & (spread <= 1.1)), spread

    def test_pair_patterns_reproduce_eigenstate_resolutions(self):
        # exact pattern sums must land on the same vx, vy that eigenstate
        # runs see, across the whole family
        from xymeas.checks import visibility_grid

        for v in (VisibilityTriple(*row) for row in visibility_grid(5)):
            _, vy2, vx2, _ = exact_rows(v)
            assert vx2 == pytest.approx(v.vx ** 2, abs=1e-12)
            assert vy2 == pytest.approx(v.vy ** 2, abs=1e-12)


def noisy_counts(v, p, shots):
    """A pair record whose class fractions are ``4 * (p e + (1 - p) / 16)`` of the exact table of ``v``."""
    return pattern_counts(shot_counts(4.0 * (p * exact_pattern_probs(v) + (1 - p) / 16), shots))


class TestSourceNoiseCorrection:
    def test_recovers_noiseless_patterns(self):
        v = VisibilityTriple(0.5, 0.4, 0.6)
        pure = exact_pattern_probs(v)
        p = 0.8
        # class fractions 4 * (p e + (1 - p) / 16) are whole multiples of 1/100000
        corrected = cell_values(pattern_cells(noisy_counts(v, p, 100_000), p))
        for k in range(4):
            assert corrected[k] == pytest.approx(pure[k], abs=1e-12)

    def test_contrasts_divide_by_p(self):
        v = VisibilityTriple(0.5, 0.4, 0.6)
        p = 0.7
        # class fractions 4 * (p e + (1 - p) / 16) are whole multiples of 1/100000
        counts = noisy_counts(v, p, 100_000)
        _, _, raw = pattern_estimates(counts)
        assert raw.value == pytest.approx(-p * v.vz ** 2, abs=1e-12)
        _, _, corrected = pattern_estimates(counts, p)
        assert corrected.value == pytest.approx(-v.vz ** 2, abs=1e-12)
        assert corrected.stderr == pytest.approx(raw.stderr / p, rel=1e-12)
        # the same row as the corrected [patterns] table's
        table = cell_values(pattern_cells(counts, p))
        assert corrected.value == pytest.approx(4.0 * _hadamard(table)[3], abs=1e-12)

    def test_invalid_parameter_rejected(self):
        counts = noisy_counts(VisibilityTriple(0.5, 0.4, 0.6), 1.0, 10_000)
        with pytest.raises(ValueError):
            pattern_cells(counts, 0.0)

    def test_parameter_floor(self):
        counts = noisy_counts(VisibilityTriple(0.5, 0.4, 0.6), 1.0, 10_000)
        with pytest.raises(ValueError, match=re.escape("must lie in [1e-06, 1]")):
            pattern_cells(counts, MIN_WERNER_P / 2)
        assert sum(cell_values(pattern_cells(counts, MIN_WERNER_P))) == pytest.approx(0.25, abs=1e-9)

    def test_corrected_cells_may_leave_the_unit_range(self):
        # one shot at p = 0.2: the full cell reads (1/4 - 0.8/16) / 0.2 = 1, the empty ones -1/4
        cells = pattern_cells(pattern_counts([1, 0, 0, 0]), 0.2)
        assert cell_values(cells) == pytest.approx([1.0, -0.25, -0.25, -0.25], abs=1e-15)


# any pair record: 16 counts of up to 1e9 shots each, at least one shot in all
pair_records = st.lists(st.integers(0, 10 ** 9), min_size=16, max_size=16).filter(any)


@pytest.mark.parametrize("p", [1.0, 0.5])
@settings(max_examples=100, deadline=None)
@given(counts=pair_records)
def test_no_pattern_stderr_is_zero(p, counts):
    record = PairCounts16(counts=counts)
    assert all(est.stderr > 0.0 for est in pattern_cells(record, p) + pattern_estimates(record, p))


@settings(max_examples=200, deadline=None)
@given(counts=pair_records)
def test_cells_match_the_pair_rows_at_the_parameter_floor(counts):
    # at MIN_WERNER_P the corrected cells still sum to 1/4, and their rows 4 H e still
    # match the pair rows, within 1e-9: the rounding of each cell grows as 1/p
    record = PairCounts16(counts=counts)
    rows = (4.0 * _hadamard(cell_values(pattern_cells(record, MIN_WERNER_P)))).tolist()
    assert rows[0] / 4.0 == pytest.approx(0.25, abs=1e-9)
    for est, j in zip(pattern_estimates(record, MIN_WERNER_P), (2, 1, 3)):
        assert rows[j] == pytest.approx(est.value, abs=1e-9)


class TestErrorModelAlgebra:
    def test_ideal_classical_model(self):
        m = error_model_from_visibilities(1.0, 1.0, 1.0)
        assert m.weights[0] == pytest.approx(1.0)
        for k in (1, 2, 3):
            assert m.weights[k] == pytest.approx(0.0)

    def test_pure_imaginary_correlation(self):
        m = error_model_from_visibilities(0.0, 0.0, 1j)
        assert m.weights[0] == pytest.approx((1 + 1j) / 4)
        assert m.weights[1] == pytest.approx((1 - 1j) / 4)
        assert m.weights[2] == pytest.approx((1 - 1j) / 4)
        assert m.weights[3] == pytest.approx((1 + 1j) / 4)

    def test_fully_random_model(self):
        m = error_model_from_visibilities(0.0, 0.0, 0.0)
        for w in m.weights:
            assert w == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "vx,vy,c", [(1.0, 1.0, 1.0), (0.0, 0.0, 1j), (0.0, 0.0, 0.0), (0.6, 0.8, 0.5j)]
    )
    def test_round_trip(self, vx, vy, c):
        m = error_model_from_visibilities(vx, vy, c)
        rvx, rvy, rc = visibilities_from_error_model(m)
        assert rvx == pytest.approx(vx, abs=1e-12)
        assert rvy == pytest.approx(vy, abs=1e-12)
        assert rc == pytest.approx(c, abs=1e-12)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(weights=[0.3] * 4)


class TestEigenstateProbsFromModel:
    def test_marginals_ignore_correlation(self):
        for c in (0.0, 0.4j, -0.2 + 0.0j):
            m = error_model_from_visibilities(0.6, 0.8, c)
            table = eigenstate_probs_from_error_model(m, "X")
            assert table[0] == pytest.approx(0.4, abs=1e-12)
            assert table[1] == pytest.approx(0.4, abs=1e-12)
            assert table[2] == pytest.approx(0.1, abs=1e-12)
            assert table[3] == pytest.approx(0.1, abs=1e-12)

    def test_matches_measurement_on_eigenstate(self):
        v = VisibilityTriple(0.5, 0.7, 0.3)
        m = error_model_from_visibilities(v.vx, v.vy, 1j * v.vz)
        predicted = eigenstate_probs_from_error_model(m, "Y")
        actual = outcome_table(build_povm(v), bloch_vector("Y", +1))
        for k in range(4):
            assert predicted[k] == pytest.approx(actual[k], abs=1e-12)

    def test_ideal_classical(self):
        m = error_model_from_visibilities(1.0, 1.0, 1.0)
        table = eigenstate_probs_from_error_model(m, "X")
        assert table[0] == pytest.approx(0.5)
        assert table[1] == pytest.approx(0.5)
        assert table[2] == table[3] == 0.0

    def test_uniform_model(self):
        m = error_model_from_visibilities(0.0, 0.0, 0.0)
        table = eigenstate_probs_from_error_model(m, "Y")
        for entry in table:
            assert entry == pytest.approx(0.25)

    def test_complex_marginal_rejected(self):
        m = error_model_from_visibilities(0.5 + 0.2j, 0.0, 0.0)
        with pytest.raises(ValueError, match="complex"):
            eigenstate_probs_from_error_model(m, "X")

    def test_out_of_range_marginal_rejected(self):
        m = error_model_from_visibilities(1.4, 0.0, 0.0)
        with pytest.raises(ValueError, match="out of"):
            eigenstate_probs_from_error_model(m, "X")

    def test_axis_z_rejected(self):
        m = error_model_from_visibilities(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            eigenstate_probs_from_error_model(m, "Z")


class TestPredictedPatternProbs:
    def test_symmetric_quantum_model(self):
        m = error_model_from_visibilities(SQ3, SQ3, 1j * SQ3)
        e = predicted_pattern_probs(m)
        exact = exact_pattern_probs(VisibilityTriple(SQ3, SQ3, SQ3))
        for k in range(4):
            assert e[k] == pytest.approx(exact[k], abs=1e-12)

    def test_ideal_classical(self):
        e = predicted_pattern_probs(error_model_from_visibilities(1.0, 1.0, 1.0))
        assert e[0] == pytest.approx(0.25)
        for k in (1, 2, 3):
            assert e[k] == pytest.approx(0.0)

    def test_uniform(self):
        e = predicted_pattern_probs(error_model_from_visibilities(0.0, 0.0, 0.0))
        for entry in e:
            assert entry == pytest.approx(1 / 16)

    def test_inconsistent_model_rejected(self):
        # PATTERNS order: (0, 0), (0, 1), (1, 0), (1, 1)
        weights = [0.5 + 0.2j, 0.3 + 0.0j, 0.2 - 0.2j, 0.0 + 0.0j]
        with pytest.raises(ValueError, match="complex"):
            predicted_pattern_probs(ErrorModel(weights=weights))

    @pytest.mark.parametrize(
        "v",
        [
            VisibilityTriple(0.5, 0.5, 0.5),
            VisibilityTriple(0.2, 0.9, -0.3),
            VisibilityTriple(0.0, 0.0, 1.0),
        ],
    )
    def test_quantum_models_match_exact_patterns(self, v):
        m = error_model_from_visibilities(v.vx, v.vy, 1j * v.vz)
        e = predicted_pattern_probs(m)
        exact = exact_pattern_probs(v)
        for k in range(4):
            assert e[k] == pytest.approx(exact[k], abs=1e-12)


complex_weights = st.tuples(
    *(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
        for _ in range(4)
    )
)


@settings(max_examples=200, deadline=None)
@given(raw=complex_weights)
# a total just above 1e-3 in modulus, which division would scale to weights of ~750
@example(raw=((0.0, 0.64453125), (0.0, 0.64453125), (0.0, -0.8793806268039592), (0.0, -0.40625)))
def test_fourier_identity(raw):
    # 4 * sum_r chi(r) e(r) = (sum_s chi(s) w(s))^2 for all four sign characters
    values = np.array([complex(re, im) for re, im in raw])
    # normalise by an additive shift, which keeps the weights of order 1; dividing by
    # the drawn total cannot when that total is small
    values = values + (1.0 - values.sum()) / 4.0
    m = ErrorModel(weights=values)
    chars = {
        (0, 0): lambda r: 1.0,
        (1, 0): lambda r: (-1.0) ** r[0],
        (0, 1): lambda r: (-1.0) ** r[1],
        (1, 1): lambda r: (-1.0) ** (r[0] + r[1]),
    }
    weights = dict(zip(PATTERNS, m.weights.tolist()))
    e = {}
    for rx, ry in PATTERNS:
        e[(rx, ry)] = (
            sum(
                complex(weights[(sx, sy)]) * complex(weights[(sx ^ rx, sy ^ ry)])
                for sx, sy in PATTERNS
            )
            / 4.0
        )
    for chi in chars.values():
        lhs = 4.0 * sum(chi(r) * e[r] for r in PATTERNS)
        rhs = sum(chi(r) * complex(weights[r]) for r in PATTERNS) ** 2
        assert abs(lhs - rhs) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    raw=st.tuples(*(st.floats(min_value=0.0, max_value=1.0) for _ in range(4))).filter(
        lambda t: sum(t) > 1e-6
    )
)
def test_classical_models_never_look_quantum(raw):
    values = np.array(raw) / sum(raw)
    m = ErrorModel(weights=values.astype(complex))
    assert classicality_statistic(predicted_pattern_probs(m)) <= 1e-10
