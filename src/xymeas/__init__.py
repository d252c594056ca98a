"""Joint X/Y qubit measurement simulation and error-statistics toolkit.

Simulates four-outcome joint measurements of the non-commuting qubit
observables X and Y on eigenstate and entangled-pair inputs, estimates the
measurement resolutions and the correlation between the two errors (which
quantum mechanics forces to be imaginary, ``c^2 = -vz^2``), and
reconstructs Kirkwood-Dirac quasi-probabilities from measured outcome
tables.
"""

__version__ = "0.1.0"
