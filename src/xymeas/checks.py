"""Self-verification sweeps behind the ``verify`` command.

Each check sweeps a family of inputs and reports the worst deviation from
the exact prediction. Failures are returned, never raised, so a runner can
print every result before deciding its exit status. Every check runs as
numpy arrays: grid triples and random models in chunks of at most `CHUNK`,
the same cases a one-at-a-time loop would visit, and the random states of
the operator identities as one batch. A failing grid check names the first
offending triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _PATTERN_INDEX16, _self_convolution, classicality_statistic
from .kirkwood import _kd_entries
from .povm import OUTCOMES4, VisibilityTriple, _exact_patterns, _family_elements, _hadamard, ideal_operator
from .qubit import ATOL_ALGEBRA, ATOL_EIG, _bloch_operators, _lowest_eigenvalues, _product, identity, pauli

# Cases are swept as arrays of this many at a time. That bounds the memory
# of the random-model sweeps whatever the sample count; `visibility_grid`
# still builds all its rows at once, so grid memory grows as grid^3.
CHUNK = 1024


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def visibility_grid(n: int) -> np.ndarray:
    """All valid triples on an n x n x n grid over [0,1]^2 x [-1,1], as (vx, vy, vz) rows.

    The rows run in ``itertools.product(xs, xs, zs)`` order.
    """
    if n < 2:
        raise ValueError("grid density must be at least 2")
    xs = np.linspace(0.0, 1.0, n)
    zs = np.linspace(-1.0, 1.0, n)
    v = np.stack(np.meshgrid(xs, xs, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    vx, vy, vz = v.T
    return v[vx * vx + vy * vy + vz * vz <= 1.0 + 1e-12]


# the singlet ket: the pair tables are checked against it, not the Bloch form `simulate` samples
_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)


def _singlet_pair_tables(elements: np.ndarray) -> np.ndarray:
    """``Tr((E_a (x) E_b) rho)`` on the singlet for each (4, 2, 2) stack of an (n, 4, 2, 2) array.

    One contraction with the singlet as a (2, 2, 2, 2) array, axes (k, l, i, j)
    for row k*2+l and column i*2+j, so no 4x4 Kronecker product is formed.
    Returns (n, 16) in ``OUTCOMES16`` order.
    """
    rho = np.outer(_SINGLET, _SINGLET.conj()).reshape(2, 2, 2, 2)
    pairs = np.einsum("naik,nbjl,klij->nab", elements, elements, rho)
    return pairs.reshape(len(elements), 16)


def _first_failure(name: str, v: np.ndarray, tests) -> CheckResult | None:
    """FAIL at the first triple of chunk ``v`` that fails any of ``tests``, else None.

    ``tests`` lists ``(label, deviation, tolerance)`` in the order one triple
    is checked; ``deviation`` has one row per row of ``v``. The message
    quotes the first failing entry of that row. A NaN deviation fails.
    """
    devs = [dev.reshape(len(dev), -1) for _, dev, _ in tests]
    failed = [~(dev <= tol) for dev, (_, _, tol) in zip(devs, tests)]
    rows = np.flatnonzero(np.any(np.concatenate(failed, axis=1), axis=1))
    if rows.size == 0:
        return None
    row = rows[0]
    label, dev, bad = next((t[0], d[row], f[row]) for t, d, f in zip(tests, devs, failed) if f[row].any())
    triple = VisibilityTriple(*v[row])
    return CheckResult(name, False, f"{label} {dev[np.argmax(bad)]:.3e} at {triple}")


def check_povm_family(grid: int = 9) -> CheckResult:
    """Completeness, Hermiticity, closed-form minimum eigenvalue, and exact pair patterns.

    Per chunk of grid triples: the (n, 4, 2, 2) element stack, its sums, its
    Hermiticity defects, its 2x2 minimum eigenvalues against
    ``(1 - |v|) / 4``, and its singlet pair tables against
    ``HADAMARD @ (1, vy^2, vx^2, -vz^2) / 16``.
    """
    triples = visibility_grid(grid)
    worst = 0.0
    for start in range(0, len(triples), CHUNK):
        v = triples[start:start + CHUNK]
        elements = _family_elements(v)
        completeness = np.max(np.abs(np.sum(elements, axis=1) - identity()), axis=(-2, -1))
        hermiticity = np.max(np.abs(elements - elements.conj().swapaxes(-1, -2)), axis=(-2, -1))
        expected_min = (1.0 - np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 2] ** 2)) / 4.0
        eigenvalue = np.abs(_lowest_eigenvalues(elements) - expected_min[:, None])
        pairs = _singlet_pair_tables(elements)
        pattern = np.abs(pairs - _exact_patterns(v)[:, _PATTERN_INDEX16])
        tests = [
            ("completeness violated by", completeness, ATOL_ALGEBRA),
            ("Hermiticity violated by", hermiticity, ATOL_ALGEBRA),
            ("min eigenvalue off by", eigenvalue, ATOL_EIG),
            ("pair pattern off by", pattern, ATOL_ALGEBRA),
        ]
        failure = _first_failure("povm_family", v, tests)
        if failure is not None:
            return failure
        worst = max(worst, *(float(np.max(dev)) for _, dev, _ in tests))
    return CheckResult("povm_family", True, f"max deviation {worst:.3e}")


def check_fourier_identity(samples: int = 10_000, seed: int = 20240902) -> CheckResult:
    """Character identity of the XOR self-convolution on random complex models.

    ``4 * H e = (H w)^2`` row by row, with ``e`` the direct convolution
    ``(1/4) * sum_s w(s) * w(s xor r)``, so ``H`` is checked against the
    definition and never against itself. Models come in chunks of `CHUNK`,
    each drawn from the same eight normals as one model at a time.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    for start in range(0, samples, CHUNK):
        raw = rng.normal(size=(min(CHUNK, samples - start), 2, 4))
        w = raw[:, 0] + 1j * raw[:, 1]
        w = w + (1.0 - w.sum(axis=1, keepdims=True)) / 4.0
        lhs = 4.0 * _hadamard(_self_convolution(w))
        deviation = float(np.max(np.abs(lhs - _hadamard(w) ** 2)))
        if deviation > 1e-10:
            return CheckResult("fourier_identity", False, f"identity violated by {deviation:.3e}")
        worst = max(worst, deviation)
    return CheckResult("fourier_identity", True, f"max deviation {worst:.3e} over {samples} models")


def check_classicality_dichotomy(
    grid: int = 9, samples: int = 10_000, seed: int = 20240903
) -> CheckResult:
    """S = vz^2/4 >= 0 on the measurement grid; S <= 0 for classical models."""
    triples = visibility_grid(grid)
    worst = 0.0
    for start in range(0, len(triples), CHUNK):
        v = triples[start:start + CHUNK]
        s = classicality_statistic(_exact_patterns(v))
        # vz^2/4 >= 0, so an S below -ATOL_ALGEBRA also fails on its deviation
        deviation = np.abs(s - v[:, 2] ** 2 / 4.0)
        tests = [("quantum side violated by", deviation, ATOL_ALGEBRA)]
        failure = _first_failure("classicality_dichotomy", v, tests)
        if failure is not None:
            return failure
        worst = max(worst, float(np.max(deviation)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    max_s = -np.inf
    for start in range(0, samples, CHUNK):
        e = _self_convolution(rng.dirichlet(np.ones(4), size=min(CHUNK, samples - start)))
        max_s = max(max_s, float(np.max(classicality_statistic(e))))
        if max_s > 1e-10:
            return CheckResult(
                "classicality_dichotomy", False, f"classical model with S = {max_s:.3e}"
            )
    return CheckResult(
        "classicality_dichotomy",
        True,
        f"grid max deviation {worst:.3e}; classical max S {max_s:.3e} over {samples} models",
    )


def _random_bloch_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Bloch vectors as (n, 3), uniform in the unit ball.

    One batch of ``n`` directions is drawn, then one of ``n`` radii. So for
    ``n > 1`` the vectors differ from ``n`` calls with ``n = 1``, which
    interleave the two draws.
    """
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(n) ** (1.0 / 3.0)
    return radius[:, None] * direction


def check_operator_identities(samples: int = 1000, seed: int = 20240901) -> CheckResult:
    """The operator identities behind the imaginary error correlation, each to ``ATOL_ALGEBRA``.

    A failure names each identity that fails, in this order:

    * ``X @ Y = i*Z``;
    * ``ideal_operator(sx, sy)`` equals the measurement-family expression
      with ``vx = vy = 1`` and ``vz`` replaced by the imaginary unit;
    * the four ideal operators sum to the identity;
    * ``Tr(ideal_operator(x, y) @ rho)`` equals the quasi-probability entry
      ``kirkwood._kd_entries(r)`` at ``(x, y)`` for ``samples`` random states
      ``rho = (I + r . sigma) / 2``.

    The Bloch vectors are drawn as one batch (`_random_bloch_vectors`), inside
    the unit ball by construction, and both sides of the last identity are
    computed over it: the traces from the matrices, the entries from ``r``.
    """
    ideal = np.array([ideal_operator(sx, sy) for sx, sy in OUTCOMES4])
    family = _bloch_operators([(sx, sy, sx * sy * 1j) for sx, sy in OUTCOMES4]) / 4.0
    rng = np.random.Generator(np.random.Philox(key=seed))
    r = _random_bloch_vectors(rng, samples)
    traces = np.einsum("oij,nji->no", ideal, _bloch_operators(r) / 2.0)
    deviations = {
        "x_times_y_equals_i_z": np.max(np.abs(_product(pauli("X"), pauli("Y")) - 1j * pauli("Z"))),
        "ideal_operator_is_family_at_vz_i": np.max(np.abs(ideal - family)),
        "ideal_operators_sum_to_identity": np.max(np.abs(np.sum(ideal, axis=0) - identity())),
        "ideal_traces_equal_kd_entries": np.max(np.abs(traces - _kd_entries(r)), initial=0.0),
    }
    # "not <=" also fails a NaN deviation
    failed = [name for name, dev in deviations.items() if not dev <= ATOL_ALGEBRA]
    if failed:
        return CheckResult("operator_identities", False, f"failed: {', '.join(failed)}")
    return CheckResult("operator_identities", True, f"max deviation {max(deviations.values()):.3e}")


def run_all_checks(grid: int = 9, samples: int = 10_000, seed: int = 20240901) -> list[CheckResult]:
    """The four checks in ``verify`` order; at the defaults, each check at its own defaults."""
    return [
        check_operator_identities(samples=min(samples, 1000), seed=seed),
        check_povm_family(grid=grid),
        check_fourier_identity(samples=samples, seed=seed + 1),
        check_classicality_dichotomy(grid=grid, samples=samples, seed=seed + 2),
    ]
