"""Self-verification sweeps behind the ``verify`` command.

Each check sweeps a family of inputs and reports the worst deviation from
the exact prediction. Failures are returned, never raised, so a runner can
print every result before deciding its exit status.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import _self_convolution, classicality_statistic, pattern_of
from .kirkwood import verify_operator_identities
from .povm import (
    OUTCOMES4,
    OUTCOMES16,
    VisibilityTriple,
    _hadamard,
    build_povm,
    exact_pattern_probs,
    pair_outcome_probs,
)
from .qubit import ATOL_ALGEBRA, ATOL_EIG, density, identity, min_eigenvalue_hermitian, singlet

# Random models are swept as arrays of this many at a time, which bounds
# memory whatever the sample count.
CHUNK = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def visibility_grid(n: int) -> list[VisibilityTriple]:
    """All valid triples on an n x n x n grid over [0,1]^2 x [-1,1]."""
    if n < 2:
        raise ValueError("grid density must be at least 2")
    xs = np.linspace(0.0, 1.0, n)
    zs = np.linspace(-1.0, 1.0, n)
    triples = []
    for vx, vy, vz in itertools.product(xs, xs, zs):
        if vx * vx + vy * vy + vz * vz <= 1.0 + 1e-12:
            triples.append(VisibilityTriple(vx, vy, vz))
    return triples


def check_povm_family(grid: int = 9) -> CheckResult:
    """Completeness, closed-form minimum eigenvalue, and exact pair patterns."""
    worst = 0.0
    singlet_rho = density(singlet())
    for v in visibility_grid(grid):
        povm = build_povm(v)
        total = sum(povm.elements[o] for o in OUTCOMES4)
        completeness = float(np.max(np.abs(total - identity(2))))
        if completeness > ATOL_ALGEBRA:
            return CheckResult(
                "povm_family", False, f"completeness violated by {completeness:.3e} at {v}"
            )
        expected_min = (1.0 - np.sqrt(v.norm_squared)) / 4.0
        for o in OUTCOMES4:
            deviation = abs(min_eigenvalue_hermitian(povm.elements[o]) - expected_min)
            if deviation > ATOL_EIG:
                return CheckResult(
                    "povm_family", False, f"min eigenvalue off by {deviation:.3e} at {v}"
                )
            worst = max(worst, deviation, completeness)
        stats = exact_pattern_probs(v)
        probs = pair_outcome_probs(povm, povm, singlet_rho)
        for o in OUTCOMES16:
            deviation = abs(probs[o] - stats.e[pattern_of(*o)])
            if deviation > ATOL_ALGEBRA:
                return CheckResult(
                    "povm_family", False, f"pair pattern off by {deviation:.3e} at {v}"
                )
            worst = max(worst, deviation)
    return CheckResult("povm_family", True, f"max deviation {worst:.3e}")


def check_fourier_identity(samples: int = 10_000, seed: int = 20240901) -> CheckResult:
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
        deviation = float(np.max(np.abs(4.0 * _hadamard(_self_convolution(w)) - _hadamard(w) ** 2)))
        if deviation > 1e-10:
            return CheckResult("fourier_identity", False, f"identity violated by {deviation:.3e}")
        worst = max(worst, deviation)
    return CheckResult("fourier_identity", True, f"max deviation {worst:.3e} over {samples} models")


def check_classicality_dichotomy(
    grid: int = 9, samples: int = 10_000, seed: int = 20240902
) -> CheckResult:
    """S = vz^2/4 >= 0 on the measurement grid; S <= 0 for classical models."""
    worst = 0.0
    for v in visibility_grid(grid):
        s = classicality_statistic(exact_pattern_probs(v))
        deviation = abs(s - v.vz ** 2 / 4.0)
        if deviation > ATOL_ALGEBRA or s < -ATOL_ALGEBRA:
            return CheckResult(
                "classicality_dichotomy", False, f"quantum side violated by {deviation:.3e} at {v}"
            )
        worst = max(worst, deviation)
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


def check_operator_identities(samples: int = 1000, seed: int = 20240903) -> CheckResult:
    """Every operator identity of `kirkwood.verify_operator_identities` to ``ATOL_ALGEBRA``."""
    deviations = verify_operator_identities(samples=samples, seed=seed)
    # "not <=" also fails a NaN deviation
    failed = [name for name, dev in deviations.items() if not dev <= ATOL_ALGEBRA]
    if failed:
        return CheckResult("operator_identities", False, f"failed: {', '.join(failed)}")
    return CheckResult("operator_identities", True, f"max deviation {max(deviations.values()):.3e}")


def run_all_checks(grid: int = 9, samples: int = 10_000, seed: int = 20240901) -> list[CheckResult]:
    return [
        check_operator_identities(samples=min(samples, 1000), seed=seed),
        check_povm_family(grid=grid),
        check_fourier_identity(samples=samples, seed=seed + 1),
        check_classicality_dichotomy(grid=grid, samples=samples, seed=seed + 2),
    ]
