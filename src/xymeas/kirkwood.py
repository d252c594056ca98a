"""Kirkwood-Dirac quasi-probabilities and their reconstruction from joint measurements.

The quasi-probability of a qubit state over joint X/Y outcomes is

    kd(x, y) = <x|y><y|rho|x> = Tr(ideal_operator(x, y) @ rho),

with ``|x>`` the X eigenstates and ``|y>`` the Y eigenstates, i.e. the
ordered-projector convention with the X projector acting first. Its
marginals are the Born probabilities of X and Y; its correlation moment is
imaginary, ``sum_{x,y} x*y*kd(x,y) = i*<Z>``.

Sign convention for the correlation parameter
---------------------------------------------
The error correlation of a measurement with visibilities ``(vx, vy, vz)``
is reported as ``c = i*vz`` (so ``c^2 = -vz^2``). Because the correlation
moment of the quasi-probability is ``i*<Z>`` while the measurement couples
to ``vz*<Z>``, the linear maps between quasi-probabilities and outcome
tables must pair that moment with ``-c``: only then does
``reconstruct_kd(outcome_probs(...), vx, vy, i*vz)`` return
``kd_from_state(rho)``. Both `forward_map` and `reconstruct_kd` use this
pairing, which keeps them exact mutual inverses for every nonzero complex
``c``. (The opposite pairing would correspond to the transposed projector
order, which conjugates every quasi-probability entry.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .analysis import ErrorModel, visibilities_from_error_model
from .povm import OUTCOMES4, OUTCOMES16, Table, _checked_table, _hadamard, _sum4, ideal_operator
from .qubit import (
    ATOL_ALGEBRA,
    _bloch_operators,
    ensure_density_matrix,
    eigenstate,
    identity,
    pauli,
    tensor_state,
)

# Visibilities below this magnitude make the inversion numerically
# meaningless; they are rejected rather than regularized.
SINGULAR_VISIBILITY = 1e-6


class SingularInversionError(ValueError):
    """Reconstruction requested with a vanishing visibility parameter."""

    def __init__(self, parameter: str, value: complex):
        self.parameter = parameter
        super().__init__(
            f"visibility parameter {parameter} = {value!r} is too small to invert "
            f"(threshold {SINGULAR_VISIBILITY})"
        )


@dataclass(frozen=True)
class KDDistribution:
    """Complex quasi-probability over joint outcomes (x, y), x, y in {+1, -1}.

    Entries sum to 1 and both marginals are real.
    """

    entries: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        entries = Table(
            OUTCOMES4, self.entries, dtype=complex, total=1.0, tol=ATOL_ALGEBRA, what="KD"
        )
        object.__setattr__(self, "entries", entries)
        # OUTCOMES4 order: rows x = +1, -1; columns y = +1, -1
        for name, axis in (("x", 1), ("y", 0)):
            marginals = entries.array.reshape(2, 2).sum(axis=axis)
            if np.max(np.abs(marginals.imag)) > ATOL_ALGEBRA:
                raise ValueError(f"{name} marginals are not real: {marginals!r}")

    def x_marginal(self, x: int) -> float:
        return complex(self.entries[(x, +1)] + self.entries[(x, -1)]).real

    def y_marginal(self, y: int) -> float:
        return complex(self.entries[(+1, y)] + self.entries[(-1, y)]).real


def kd_from_state(rho) -> KDDistribution:
    """Quasi-probability ``<x|y><y|rho|x>`` of a qubit state."""
    return KDDistribution(entries=_kd_entries(ensure_density_matrix(rho, dim=2)))


def _product_kets(outcomes, axis: str) -> np.ndarray:
    """``|a1> (x) |a2> (x) ...`` for each outcome ``(x1, y1, x2, y2, ...)``, ``a`` the ``axis`` signs."""
    first = "XY".index(axis)
    kets = ([eigenstate(axis, s) for s in o[first::2]] for o in outcomes)
    return np.array([functools.reduce(tensor_state, k) for k in kets])


def _kd_entries(rho: np.ndarray, outcomes=OUTCOMES4) -> np.ndarray:
    """``<x|y><y|rho|x>`` in ``outcomes`` order for each state of a (..., d, d) stack, as (..., k).

    ``outcomes`` is ``OUTCOMES4`` for a qubit, ``OUTCOMES16`` for a pair
    (`_product_kets`). For a row-major stack the entries are bit for bit the
    ``np.sum`` contractions of the (..., k, d, d) products
    ``rho[..., i, j] * ket_x[o, j]`` over ``j`` and then of
    ``conj(ket_y[o, i]) * rho_x[..., o, i]`` over ``i``, added by `povm._sum4`
    without building either product.
    """
    ket_x = _product_kets(outcomes, "X")
    ket_y = _product_kets(outcomes, "Y")
    overlap = np.sum(ket_x.conj() * ket_y, axis=-1)
    rho = np.asarray(rho)
    dim = ket_x.shape[-1]
    # rho_x[i][..., o] = sum_j rho[..., i, j] * ket_x[o, j]
    rho_x = [_sum4(*(rho[..., i, j, None] * ket_x[:, j] for j in range(dim))) for i in range(dim)]
    return overlap * _sum4(*(ket_y[:, i].conj() * rho_x[i] for i in range(dim)))


def kd_pair_from_state(rho4) -> Table:
    """Quasi-probability ``<x1,x2|y1,y2><y1,y2|rho4|x1,x2>`` of a two-qubit state over ``OUTCOMES16``."""
    entries = _kd_entries(ensure_density_matrix(rho4, dim=4), OUTCOMES16)
    return Table(OUTCOMES16, entries, dtype=complex, total=1.0, tol=ATOL_ALGEBRA, what="pair KD")


def _check_not_singular(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(value) < SINGULAR_VISIBILITY:
        raise SingularInversionError(name, value)
    return value


def reconstruct_kd(
    p: Mapping[tuple[int, int], float], vx: float, vy: float, c: complex
) -> KDDistribution:
    """Invert an outcome table of a joint measurement into a quasi-probability.

    ``kd(x, y) = (1/4) * sum_{x', y'} (1 + x*x'/vx + y*y'/vy - x*x'*y*y'/c) * p(x', y')``

    For a table produced by the measurement with visibilities (vx, vy, vz)
    on a state ``rho``, passing ``c = i*vz`` returns ``kd_from_state(rho)``;
    see the module docstring for why the ``1/c`` term carries the minus
    sign. Any nonzero complex ``c`` is accepted so that hypothetical real
    error models can be inverted as well. Visibilities smaller in magnitude
    than ``SINGULAR_VISIBILITY`` raise `SingularInversionError` naming the
    offending parameter.
    """
    probs = _checked_table(
        p, OUTCOMES4, low=-ATOL_ALGEBRA, high=1.0 + ATOL_ALGEBRA, total=1.0, what="probabilities"
    ).tolist()
    vx = _check_not_singular("vx", vx)
    vy = _check_not_singular("vy", vy)
    c = _check_not_singular("c", c)
    entries = []
    for x, y in OUTCOMES4:
        acc = 0.0 + 0.0j
        for (xp, yp), prob in zip(OUTCOMES4, probs):
            coeff = 1.0 + (x * xp) / vx + (y * yp) / vy - (x * xp * y * yp) / c
            acc += coeff * prob
        entries.append(acc / 4.0)
    return KDDistribution(entries=entries)


def forward_map(kd: KDDistribution, m: ErrorModel) -> Table:
    """Outcome table produced by an error model acting on a quasi-probability.

    Exact inverse of `reconstruct_kd` at matching ``(vx, vy, c)``. The error
    weights couple to the quasi-probability through its four moments
    ``H @ kd`` = (total, y, x, x*y), with the correlation moment paired with
    ``-c`` (module docstring); for the physical model of a measurement with
    visibilities (vx, vy, vz), i.e. ``c = i*vz``, this reproduces the
    measurement's outcome probabilities. Materially complex outputs are
    rejected as an inconsistent pairing of quasi-probability and model.
    """
    vx, vy, c = visibilities_from_error_model(m)
    moments = _hadamard(kd.entries.array) * np.array([1.0, vy, vx, -c])
    table = _hadamard(moments) / 4.0
    worst = int(np.argmax(np.abs(table.imag)))
    if abs(table[worst].imag) > 1e-10:
        raise ValueError(
            f"forward map produced a complex probability at {OUTCOMES4[worst]}: {table[worst]!r}; "
            "the quasi-probability and error model are inconsistent"
        )
    return Table(OUTCOMES4, table.real)


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    """Density matrix with Bloch vector drawn uniformly from the unit ball."""
    return _random_qubit_densities(rng, 1)[0]


def _random_qubit_densities(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` states as (n, 2, 2): one batch of ``n`` directions, then one of ``n`` radii.

    So for ``n > 1`` the states differ from ``n`` calls of
    `random_qubit_density`, which interleave the two draws.
    """
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(n) ** (1.0 / 3.0)
    return _bloch_operators(radius[:, None] * direction) / 2.0


def verify_operator_identities(samples: int = 1000, seed: int = 20240901) -> dict[str, float]:
    """Worst deviation from each operator identity behind the imaginary error correlation.

    Keyed by identity name, in this order; `checks.check_operator_identities`
    judges them against ``ATOL_ALGEBRA``:

    * ``X @ Y = i*Z``;
    * ``ideal_operator(sx, sy)`` equals the measurement-family expression
      with ``vx = vy = 1`` and ``vz`` replaced by the imaginary unit;
    * the four ideal operators sum to the identity;
    * ``Tr(ideal_operator(x, y) @ rho)`` equals the quasi-probability entry
      ``kd_from_state(rho)[(x, y)]`` for ``samples`` random states.

    The states are drawn as one batch (`_random_qubit_densities`), validated
    as a stack, and both sides of the last identity are computed over it.
    """
    deviations = {}

    deviations["x_times_y_equals_i_z"] = float(
        np.max(np.abs(pauli("X") @ pauli("Y") - 1j * pauli("Z")))
    )

    ideal = np.array([ideal_operator(sx, sy) for sx, sy in OUTCOMES4])
    family = _bloch_operators([(sx, sy, sx * sy * 1j) for sx, sy in OUTCOMES4]) / 4.0
    deviations["ideal_operator_is_family_at_vz_i"] = float(np.max(np.abs(ideal - family)))

    total = np.sum(ideal, axis=0)
    deviations["ideal_operators_sum_to_identity"] = float(np.max(np.abs(total - identity(2))))

    rng = np.random.Generator(np.random.Philox(key=seed))
    rho = ensure_density_matrix(_random_qubit_densities(rng, samples), dim=2)
    traces = np.einsum("oij,nji->no", ideal, rho)
    deviations["ideal_traces_equal_kd_entries"] = float(
        np.max(np.abs(traces - _kd_entries(rho)), initial=0.0)
    )

    return deviations
