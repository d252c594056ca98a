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

from .analysis import _PATTERN_INDEX16, _self_convolution
from .kirkwood import verify_operator_identities
from .povm import VisibilityTriple, _exact_patterns, _family_elements, _hadamard
from .qubit import ATOL_ALGEBRA, ATOL_EIG, _lowest_eigenvalues, density, identity, singlet

# Cases are swept as arrays of this many at a time, which bounds memory
# whatever the grid density or sample count.
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


def _singlet_pair_tables(elements: np.ndarray) -> np.ndarray:
    """``Tr((E_a (x) E_b) rho)`` on the singlet for each (4, 2, 2) stack of an (n, 4, 2, 2) array.

    One contraction with the singlet as a (2, 2, 2, 2) array, axes (k, l, i, j)
    for row k*2+l and column i*2+j, so no 4x4 Kronecker product is formed.
    Returns (n, 16) in ``OUTCOMES16`` order.
    """
    rho = density(singlet()).reshape(2, 2, 2, 2)
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
        completeness = np.max(np.abs(np.sum(elements, axis=1) - identity(2)), axis=(-2, -1))
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


def _hadamard_by_parts(e: np.ndarray) -> np.ndarray:
    """`povm._hadamard` of the real and the imaginary part of ``e``, as one complex array."""
    h = np.empty(e.shape, e.dtype)
    h.real, h.imag = _hadamard(e.real), _hadamard(e.imag)
    return h


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
        # by parts (exact, H being real) so rows add left to right, as in the golden verify output
        lhs = 4.0 * _hadamard_by_parts(_self_convolution(w))
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
        e = _exact_patterns(v)
        # `analysis.classicality_statistic`, term for term
        s = e[:, 1] + e[:, 2] - e[:, 0] - e[:, 3]
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
        max_s = max(max_s, float(np.max(e[:, 1] + e[:, 2] - e[:, 0] - e[:, 3])))
        if max_s > 1e-10:
            return CheckResult(
                "classicality_dichotomy", False, f"classical model with S = {max_s:.3e}"
            )
    return CheckResult(
        "classicality_dichotomy",
        True,
        f"grid max deviation {worst:.3e}; classical max S {max_s:.3e} over {samples} models",
    )


def check_operator_identities(samples: int = 1000, seed: int = 20240901) -> CheckResult:
    """Every operator identity of `kirkwood.verify_operator_identities` to ``ATOL_ALGEBRA``."""
    deviations = verify_operator_identities(samples=samples, seed=seed)
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
