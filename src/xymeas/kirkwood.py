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
to ``vz*<Z>``, the linear map from outcome tables to quasi-probabilities
must pair that moment with ``-c``: only then does
``reconstruct_kd(outcome_probs(...), vx, vy, i*vz)`` return
``kd_from_state(rho)``. `reconstruct_kd` uses this pairing for every
nonzero complex ``c``. (The opposite pairing would correspond to the
transposed projector order, which conjugates every quasi-probability entry.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .povm import OUTCOMES4, _checked_table, _sum4
from .qubit import ATOL_ALGEBRA, ensure_density_matrix, eigenstate, tensor_state

# Visibilities below this magnitude are rejected rather than regularized.
# The inversion scales rounding by 1/|v|: with all three |v| equal, random
# tables pushed the KD entries' sum past ATOL_ALGEBRA, the KDDistribution
# tolerance, at 1e-4 and 2e-4, and never at 3e-4 and above.
SINGULAR_VISIBILITY = 1e-3


class SingularInversionError(ValueError):
    """Reconstruction requested with a vanishing visibility parameter."""

    def __init__(self, parameter: str, value: complex):
        self.parameter = parameter
        super().__init__(
            f"visibility parameter {parameter} = {value!r} is too small to invert "
            f"(threshold {SINGULAR_VISIBILITY})"
        )


@dataclass(frozen=True, eq=False)
class KDDistribution:
    """Complex quasi-probability over joint outcomes (x, y), x, y in {+1, -1}.

    ``entries`` becomes a read-only vector in ``OUTCOMES4`` order, so
    instances compare by identity. Entries sum to 1 and both marginals are real.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _checked_table(
            self.entries, 4, dtype=complex, total=1.0, tol=ATOL_ALGEBRA, what="KD"
        )
        object.__setattr__(self, "entries", entries)
        # OUTCOMES4 order: rows x = +1, -1; columns y = +1, -1
        for name, axis in (("x", 1), ("y", 0)):
            marginals = entries.reshape(2, 2).sum(axis=axis)
            if np.max(np.abs(marginals.imag)) > ATOL_ALGEBRA:
                raise ValueError(f"{name} marginals are not real: {marginals!r}")

    # two terms, a + b: a sum starting from 0.0 would turn a -0.0 marginal into 0.0
    def x_marginal(self, x: int) -> float:
        k = OUTCOMES4.index((x, +1))
        return complex(self.entries[k] + self.entries[k + 1]).real

    def y_marginal(self, y: int) -> float:
        k = OUTCOMES4.index((+1, y))
        return complex(self.entries[k] + self.entries[k + 2]).real


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

    ``outcomes`` is ``OUTCOMES4`` for a qubit, as every command uses it, or
    ``OUTCOMES16`` for a pair (`_product_kets`), which serves acceptance
    criterion 9 through ``tests/oracles.kd_pair_from_state``. For a
    row-major stack the entries are bit for bit the ``np.sum`` contractions
    of the (..., k, d, d) products ``rho[..., i, j] * ket_x[o, j]`` over
    ``j`` and then of ``conj(ket_y[o, i]) * rho_x[..., o, i]`` over ``i``,
    added by `povm._sum4` without building either product.
    """
    ket_x = _product_kets(outcomes, "X")
    ket_y = _product_kets(outcomes, "Y")
    overlap = np.sum(ket_x.conj() * ket_y, axis=-1)
    rho = np.asarray(rho)
    dim = ket_x.shape[-1]
    # rho_x[i][..., o] = sum_j rho[..., i, j] * ket_x[o, j]
    rho_x = [_sum4(*(rho[..., i, j, None] * ket_x[:, j] for j in range(dim))) for i in range(dim)]
    return overlap * _sum4(*(ket_y[:, i].conj() * rho_x[i] for i in range(dim)))


def _check_not_singular(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(value) < SINGULAR_VISIBILITY:
        raise SingularInversionError(name, value)
    return value


def reconstruct_kd(p, vx: float, vy: float, c: complex) -> KDDistribution:
    """Invert an outcome table of a joint measurement, in ``OUTCOMES4`` order, into a quasi-probability.

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
        p, 4, low=-ATOL_ALGEBRA, high=1.0 + ATOL_ALGEBRA, total=1.0, what="probabilities"
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
