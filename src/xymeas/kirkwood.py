"""Kirkwood-Dirac quasi-probabilities and their reconstruction from joint measurements.

The quasi-probability of a qubit state over joint X/Y outcomes is

    kd(x, y) = <x|y><y|rho|x> = Tr(ideal_operator(x, y) @ rho),

with ``|x>`` the X eigenstates and ``|y>`` the Y eigenstates, i.e. the
ordered-projector convention with the X projector acting first. Its
marginals are the Born probabilities of X and Y; its correlation moment is
imaginary, ``sum_{x,y} x*y*kd(x,y) = i*<Z>``. For the state of Bloch vector
``r = (<X>, <Y>, <Z>)`` it is one transform of the moments,
``kd = H (1, <Y>, <X>, i*<Z>) / 4`` (`kd_from_bloch`).

Sign convention for the correlation parameter
---------------------------------------------
The error correlation of a measurement with visibilities ``(vx, vy, vz)``
is reported as ``c = i*vz`` (so ``c^2 = -vz^2``). Over the rows (total, y,
x, x*y) of the Walsh-Hadamard transform ``H = povm.HADAMARD``, the
quasi-probability has moments ``H kd = (1, <Y>, <X>, i*<Z>)`` and the
measurement's table ``H p = (1, vy*<Y>, vx*<X>, vz*<Z>)``. So
`reconstruct_kd` divides the correlation moment by ``-c``, for every
nonzero complex ``c``: only then does ``reconstruct_kd(outcome_table(...,
r), vx, vy, i*vz)`` return ``kd_from_bloch(r)``. (Dividing by ``c`` would
correspond to the transposed projector order, which conjugates every
quasi-probability entry.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .povm import OUTCOMES4, _checked_table, _hadamard
from .qubit import ATOL_ALGEBRA

# Visibilities below this magnitude are rejected rather than regularized.
# The inversion scales rounding by 1/|v|: with all three |v| equal, random
# tables pushed the KD entries' sum past ATOL_ALGEBRA, the KDDistribution
# tolerance, at 3e-5 and below, and never at 5e-5 and above.
SINGULAR_VISIBILITY = 1e-3


class SingularInversionError(ValueError):
    """Reconstruction requested with a vanishing visibility parameter."""


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


def kd_from_bloch(r) -> KDDistribution:
    """Quasi-probability ``<x|y><y|rho|x>`` of the qubit state of Bloch vector ``r``."""
    return KDDistribution(entries=_kd_entries(r))


def _kd_entries(r) -> np.ndarray:
    """``<x|y><y|rho|x>`` in ``OUTCOMES4`` order for each Bloch vector of a (..., 3) stack, as (..., 4).

    One transform of the moments, ``H (1, ry, rx, i*rz) / 4`` (`povm._hadamard`).
    """
    rx, ry, rz = np.moveaxis(np.asarray(r, dtype=float), -1, 0)
    return _hadamard(np.stack([np.ones_like(rx), ry, rx, 1j * rz], axis=-1)) / 4.0


def _check_not_singular(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(value) < SINGULAR_VISIBILITY:
        raise SingularInversionError(
            f"visibility parameter {name} = {value!r} is too small to invert "
            f"(threshold {SINGULAR_VISIBILITY})"
        )
    return value


def reconstruct_kd(p, vx: float, vy: float, c: complex) -> KDDistribution:
    """Invert an outcome table of a joint measurement, in ``OUTCOMES4`` order, into a quasi-probability.

    ``kd = H (d * H p) / 4`` with ``d = (1, 1/vy, 1/vx, -1/c)``: the table's
    moments ``H p`` (`povm._hadamard`), each divided by the visibility that
    scaled it, are those of the quasi-probability, and ``H / 4`` inverts ``H``.

    For a table produced by the measurement with visibilities (vx, vy, vz)
    on the state of Bloch vector ``r``, ``c = i*vz`` returns
    ``kd_from_bloch(r)`` (see the module docstring for the sign); any
    nonzero complex ``c`` is accepted, so hypothetical real error models
    invert too. Visibilities smaller in magnitude than ``SINGULAR_VISIBILITY``
    raise `SingularInversionError` naming the offending parameter.
    """
    probs = _checked_table(
        p, 4, low=-ATOL_ALGEBRA, high=1.0 + ATOL_ALGEBRA, total=1.0, what="probabilities"
    )
    vx = _check_not_singular("vx", vx)
    vy = _check_not_singular("vy", vy)
    c = _check_not_singular("c", c)
    d = np.array([1.0, 1 / vy, 1 / vx, -1 / c])
    return KDDistribution(entries=_hadamard(_hadamard(probs) * d) / 4.0)
