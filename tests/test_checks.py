"""The array-native `verify` checks: agreement with one-at-a-time references, and failure injection."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import pattern_of
from xymeas import checks
from xymeas.analysis import classicality_statistic
from xymeas.checks import (
    check_classicality_dichotomy,
    check_fourier_identity,
    check_operator_identities,
    check_povm_family,
    run_all_checks,
    visibility_grid,
)
from xymeas.checks import _random_qubit_densities
from xymeas.kirkwood import _kd_entries, kd_from_state
from xymeas.povm import (
    OUTCOMES4,
    OUTCOMES16,
    VisibilityTriple,
    _exact_patterns,
    _family_elements,
    build_povm,
    exact_pattern_probs,
    pair_outcome_probs,
)
from xymeas.qubit import density, singlet

GRID = visibility_grid(9)
# the same triples as records, for references and the FAIL text
TRIPLES = [VisibilityTriple(*v) for v in GRID]
DELTA = 1e-9
# The default grid fits in one `checks.CHUNK`; these tests sweep it in chunks
# of this size instead, so a failure is also located past a chunk offset.
SMALL_CHUNK = 256
# a triple in the second chunk, so the chunk offset is exercised
LATE = SMALL_CHUNK + 17
EARLY = 40


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(checks, "CHUNK", SMALL_CHUNK)


def rows_of(v, index):
    """Rows of a chunk's (n, 3) array that hold grid triple ``index``."""
    return np.flatnonzero(np.all(v == GRID[index], axis=1))


def test_grid_spans_more_than_one_chunk():
    assert GRID.shape == (310, 3) and len(GRID) > LATE
    assert checks.CHUNK == SMALL_CHUNK < LATE


@pytest.mark.parametrize("grid, samples", [(9, 10_000), (5, 2500), (13, 300)])
def test_chunk_size_does_not_change_details(monkeypatch, grid, samples):
    # every case is swept in the same order and the random streams are drawn
    # in the same order, whatever the chunk size
    details = {}
    for chunk in (256, 1024):
        monkeypatch.setattr(checks, "CHUNK", chunk)
        details[chunk] = run_all_checks(grid=grid, samples=samples)
    assert details[256] == details[1024]
    assert all(result.passed for result in details[1024])


def test_check_defaults_are_the_verify_defaults():
    # each check called at its own defaults is the check `verify` runs at its defaults
    results = [
        check_operator_identities(),
        check_povm_family(),
        check_fourier_identity(),
        check_classicality_dichotomy(),
    ]
    assert results == run_all_checks()
    golden = Path(__file__).parent / "golden" / "verify.stdout"
    assert [f"PASS {r.name}: {r.detail}" for r in results] == golden.read_text().splitlines()


@pytest.mark.parametrize("n", [2, 3, 9])
def test_grid_matches_triple_loop(n):
    xs, zs = np.linspace(0.0, 1.0, n), np.linspace(-1.0, 1.0, n)
    loop = [(x, y, z) for x, y, z in itertools.product(xs, xs, zs) if x * x + y * y + z * z <= 1.0 + 1e-12]
    assert visibility_grid(n).tobytes() == np.array(loop).tobytes()


class TestAgreementWithReferences:
    def test_family_elements_are_build_povm_bit_for_bit(self):
        stack = _family_elements(GRID)
        for v, elements in zip(TRIPLES, stack):
            assert elements.tobytes() == build_povm(v).tobytes()

    def test_pair_tables_match_kronecker_traces(self):
        tables = checks._singlet_pair_tables(_family_elements(GRID))
        rho = density(singlet())
        for v, table in zip(TRIPLES[::7], tables[::7]):
            povm = build_povm(v)
            expected = pair_outcome_probs(povm, povm, rho)
            assert np.max(np.abs(table - expected)) <= 1e-15

    def test_exact_patterns_match_closed_form_and_statistic(self):
        patterns = _exact_patterns(GRID)
        for v, row in zip(TRIPLES, patterns):
            vx2, vy2, vz2 = v.vx ** 2, v.vy ** 2, v.vz ** 2
            closed = [1 + vx2 + vy2 - vz2, 1 + vx2 - vy2 + vz2, 1 - vx2 + vy2 + vz2, 1 - vx2 - vy2 - vz2]
            assert np.max(np.abs(row - np.array(closed) / 16.0)) <= 1e-16
            stats = exact_pattern_probs(v)
            assert row.tobytes() == stats.e.tobytes()
            assert row[1] + row[2] - row[0] - row[3] == classicality_statistic(stats.e)

    def test_pattern_index_follows_pattern_of(self):
        from xymeas.analysis import _PATTERN_INDEX16
        from xymeas.povm import PATTERNS

        assert [PATTERNS[i] for i in _PATTERN_INDEX16] == [pattern_of(*o) for o in OUTCOMES16]

    def test_stacked_kd_entries_equal_single_state_digits(self):
        rho = _random_qubit_densities(np.random.Generator(np.random.Philox(key=3)), 50)
        stacked = _kd_entries(rho)
        for state, row in zip(rho, stacked):
            assert row.tobytes() == kd_from_state(state).entries.tobytes()

    def test_kd_entries_match_vdot_loop(self):
        from xymeas.qubit import eigenstate

        rho = _random_qubit_densities(np.random.Generator(np.random.Philox(key=4)), 200)
        stacked = _kd_entries(rho)
        for state, row in zip(rho, stacked):
            for k, (x, y) in enumerate(OUTCOMES4):
                ket_x, ket_y = eigenstate("X", x), eigenstate("Y", y)
                expected = np.vdot(ket_x, ket_y) * np.vdot(ket_y, state @ ket_x)
                assert abs(row[k] - expected) <= 1e-15

    def test_states_drawn_as_one_batch(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        rho = _random_qubit_densities(rng, 20)
        ref = np.random.Generator(np.random.Philox(key=9))
        direction = ref.normal(size=(20, 3))
        radius = ref.random(20) ** (1.0 / 3.0)
        bloch = radius[:, None] * direction / np.linalg.norm(direction, axis=1, keepdims=True)
        assert np.allclose(rho[:, 0, 1], (bloch[:, 0] - 1j * bloch[:, 1]) / 2.0, rtol=0, atol=1e-15)
        assert np.allclose(rho[:, 0, 0].real, (1.0 + bloch[:, 2]) / 2.0, rtol=0, atol=1e-15)

    def test_all_pass_at_default_sizes(self):
        assert check_povm_family().passed
        assert check_classicality_dichotomy(samples=100).passed
        assert check_operator_identities().passed


def perturbed_elements(monkeypatch, edits):
    """Patch the element stack: ``edits`` maps a grid index to an in-place edit of its (4, 2, 2) elements."""
    original = checks._family_elements

    def patched(v):
        stack = original(v)
        for index, edit in edits.items():
            for row in rows_of(v, index):
                edit(stack[row])
        return stack

    monkeypatch.setattr(checks, "_family_elements", patched)


def add_to_entry(o, i, j, delta):
    def edit(elements):
        elements[o, i, j] += delta

    return edit


def shift_between(o1, o2, matrix):
    """Move ``matrix`` from element o2 to element o1: the sum, hence completeness, is kept."""

    def edit(elements):
        elements[o1] += matrix
        elements[o2] -= matrix

    return edit


class TestPovmFamilyFailures:
    @pytest.mark.parametrize("index", [0, EARLY, LATE, len(GRID) - 1])
    def test_completeness(self, monkeypatch, index):
        perturbed_elements(monkeypatch, {index: add_to_entry(2, 0, 0, DELTA)})
        result = check_povm_family()
        assert not result.passed
        assert result.detail == f"completeness violated by {DELTA:.3e} at {TRIPLES[index]}"

    def test_hermiticity(self, monkeypatch):
        skew = np.array([[0, DELTA], [0, 0]], dtype=complex)
        perturbed_elements(monkeypatch, {LATE: shift_between(1, 3, skew)})
        result = check_povm_family()
        assert result.detail == f"Hermiticity violated by {DELTA:.3e} at {TRIPLES[LATE]}"

    def test_min_eigenvalue(self, monkeypatch):
        perturbed_elements(monkeypatch, {EARLY: shift_between(0, 1, DELTA * np.eye(2))})
        result = check_povm_family()
        assert result.detail == f"min eigenvalue off by {DELTA:.3e} at {TRIPLES[EARLY]}"

    def test_pair_entry(self, monkeypatch):
        original = checks._singlet_pair_tables

        def patched(elements):
            tables = original(elements)
            hit = [k for k in range(len(elements)) if np.array_equal(elements[k], target)]
            tables[hit, 9] += DELTA
            return tables

        target = _family_elements(GRID[LATE:LATE + 1])[0]
        monkeypatch.setattr(checks, "_singlet_pair_tables", patched)
        result = check_povm_family()
        assert not result.passed
        assert result.detail.startswith("pair pattern off by 1.000e-09")
        assert result.detail.endswith(f" at {TRIPLES[LATE]}")

    def test_first_offending_triple_wins_across_kinds_and_chunks(self, monkeypatch):
        perturbed_elements(
            monkeypatch,
            {
                LATE: add_to_entry(0, 1, 1, DELTA),
                EARLY: shift_between(0, 1, DELTA * np.eye(2)),
                EARLY + 1: add_to_entry(0, 0, 0, DELTA),
            },
        )
        result = check_povm_family()
        assert result.detail == f"min eigenvalue off by {DELTA:.3e} at {TRIPLES[EARLY]}"

    def test_nan_fails(self, monkeypatch):
        perturbed_elements(monkeypatch, {LATE: add_to_entry(3, 1, 0, np.nan)})
        result = check_povm_family()
        assert not result.passed
        assert result.detail.endswith(f" at {TRIPLES[LATE]}")

    def test_below_tolerance_passes(self, monkeypatch):
        perturbed_elements(monkeypatch, {LATE: shift_between(0, 1, 1e-14 * np.eye(2))})
        result = check_povm_family()
        assert result.passed
        # the eigenvalue shift, up to rounding at the scale of the entries
        assert float(result.detail.removeprefix("max deviation ")) == pytest.approx(1e-14, rel=0.02)


class TestClassicalityFailures:
    def test_one_grid_triple(self, monkeypatch):
        original = _exact_patterns

        def patched(v):
            e = original(v)
            e[rows_of(v, LATE), 1] += DELTA
            return e

        monkeypatch.setattr(checks, "_exact_patterns", patched)
        result = check_classicality_dichotomy(samples=10)
        assert not result.passed
        assert result.detail.startswith("quantum side violated by 1.000e-09")
        assert result.detail.endswith(f" at {TRIPLES[LATE]}")


class TestOperatorIdentityFailures:
    @pytest.mark.parametrize("state", [0, 517, 999])
    def test_one_kd_entry_of_one_state(self, monkeypatch, state):
        original = checks._kd_entries

        def perturb(delta):
            def patched(rho):
                entries = original(rho)
                entries[state, 2] += delta
                return entries

            monkeypatch.setattr(checks, "_kd_entries", patched)

        # below the tolerance the perturbation is the reported deviation
        perturb(DELTA / 2000)
        result = check_operator_identities()
        assert result.passed and result.detail.startswith("max deviation ")
        assert float(result.detail.split()[-1]) == pytest.approx(DELTA / 2000, rel=1e-3)
        perturb(DELTA)
        assert check_operator_identities() == checks.CheckResult(
            "operator_identities", False, "failed: ideal_traces_equal_kd_entries"
        )

    def test_states_validated_as_a_stack(self, monkeypatch):
        original = checks._random_qubit_densities

        def patched(rng, n):
            rho = original(rng, n)
            rho[n // 2] *= 1.5
            return rho

        monkeypatch.setattr(checks, "_random_qubit_densities", patched)
        with pytest.raises(ValueError, match="unit trace"):
            check_operator_identities(samples=100)

    def test_no_states(self, monkeypatch):
        # with no states the trace identity reads 0 and fails only on a NaN entry
        assert check_operator_identities(samples=0).passed
        monkeypatch.setattr(checks, "_kd_entries", lambda rho: np.full((len(rho), 4), np.nan))
        assert check_operator_identities(samples=0).passed
        assert not check_operator_identities(samples=1).passed
