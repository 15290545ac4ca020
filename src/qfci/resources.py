"""Elementary-gate counts for Trotterized controlled evolution.

Standard template per string exponential e^{i theta P}: conjugate each X
factor with Hadamards, each Y factor with R_x(-pi/2) pairs, chain the
support with a CNOT ladder, rotate the parity qubit with one R_z
(controlled-R_z when the evolution itself is controlled).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PauliOperator


@dataclass(frozen=True)
class GateCounts:
    hadamard: int = 0
    cnot: int = 0
    rx: int = 0
    rz: int = 0
    controlled_rz: int = 0

    @property
    def total(self) -> int:
        return self.hadamard + self.cnot + self.rx + self.rz + self.controlled_rz

    def as_dict(self) -> dict[str, int]:
        return {
            "hadamard": self.hadamard,
            "cnot": self.cnot,
            "rx": self.rx,
            "rz": self.rz,
            "controlled_rz": self.controlled_rz,
            "total": self.total,
        }


def count_controlled_u(op: PauliOperator) -> GateCounts:
    """Gates for one controlled Trotter slice of op, read from its masks.

    Identity strings (x = z = 0) are skipped: their controlled action is a
    phase on the control qubit that merges with the feedback rotation
    already in the circuit, and every count below is a popcount, which is
    0 for them.  Each rotation is controlled, so rz stays 0.
    """
    x, z = op.x, op.z
    n_strings = int(np.count_nonzero(x | z))
    weight = int(np.bitwise_count(x | z).sum(dtype=np.int64))
    n_x = int(np.bitwise_count(x & ~z).sum(dtype=np.int64))
    n_y = int(np.bitwise_count(x & z).sum(dtype=np.int64))
    return GateCounts(
        hadamard=2 * n_x,
        cnot=2 * (weight - n_strings),
        rx=2 * n_y,
        controlled_rz=n_strings,
    )


def fci_dimension(n_orb: int, n_alpha: int, n_beta: int) -> int:
    """Determinant count of the (n_alpha, n_beta) sector."""
    return math.comb(n_orb, n_alpha) * math.comb(n_orb, n_beta)


def fitted_exponent(sizes, totals) -> float:
    """Least-squares slope of log(total) against log(size)."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(totals, dtype=float))
    if xs.size < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
