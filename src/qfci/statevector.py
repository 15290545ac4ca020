"""Dense little-endian statevector simulator.

Qubit j is bit j of the basis index (qubit 0 is the least significant
bit).  All rotation angles are in turns, i.e. fractions of 2*pi:
rz_phase(w) = diag(1, exp(2*pi*i*w)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DegenerateState, IndexOutOfRange

DEFAULT_QUBIT_CAP = 24
_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**n_qubits, contiguous

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_register(n_qubits: int) -> StateVector:
    """All-zeros register |0...0>."""
    if n_qubits < 1:
        raise IndexOutOfRange(f"need at least one qubit, got {n_qubits}")
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise CapExceeded(f"{n_qubits} qubits exceeds cap {DEFAULT_QUBIT_CAP}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


# -- gates --------------------------------------------------------------

HADAMARD = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
                    dtype=np.complex128)
HADAMARD.flags.writeable = False  # shared by every caller


def rz_phase(turns: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(2j * np.pi * turns)]], dtype=np.complex128)


def _target_slices(state: StateVector, target: int):
    """Views of the target-bit-0 / target-bit-1 amplitudes."""
    if not 0 <= target < state.n_qubits:
        raise IndexOutOfRange(f"qubit {target} outside register of {state.n_qubits}")
    view = state.amplitudes.reshape(1 << (state.n_qubits - target - 1), 2, 1 << target)
    return view[:, 0, :], view[:, 1, :]


def apply_gate(state: StateVector, gate: np.ndarray, target: int) -> StateVector:
    """Apply a 2x2 gate matrix in place; returns the same state for chaining.

    A diagonal matrix scales each half; any other mixes them.
    """
    if gate.shape != (2, 2):
        raise ValueError(f"a gate is a 2x2 matrix, got shape {gate.shape}")
    s0, s1 = _target_slices(state, target)
    (g00, g01), (g10, g11) = gate.tolist()
    if g01 == 0 and g10 == 0:
        if g00 != 1:  # rz_phase leaves the 0 half as it is
            s0 *= g00
        s1 *= g11
    else:
        a0 = s0.copy()
        s0[...] = g00 * a0 + g01 * s1
        s1[...] = g10 * a0 + g11 * s1
    return state


def _branch_norms(state: StateVector, qubit: int) -> tuple[float, float]:
    """(p0, p1), the squared norms of the qubit's 0 and 1 halves."""
    s0, s1 = _target_slices(state, qubit)
    p0 = float(np.vdot(s0, s0).real)
    p1 = float(np.vdot(s1, s1).real)
    if max(p0, p1) < 1e-15:
        raise DegenerateState(f"qubit {qubit}: both branch norms below 1e-15")
    return p0, p1


def _draw(p0: float, p1: float, rng: np.random.Generator) -> int:
    """The outcome one uniform from rng picks for branch norms (p0, p1)."""
    return 1 if rng.random() * (p0 + p1) < p1 else 0


def _collapse(state: StateVector, qubit: int, outcome: int, p: float) -> None:
    """Zero the other half and divide the outcome's half by sqrt(p), its norm."""
    s0, s1 = _target_slices(state, qubit)
    kept, dropped = (s1, s0) if outcome else (s0, s1)
    dropped[...] = 0.0
    kept /= np.sqrt(p)


def measure_qubit(state: StateVector, qubit: int,
                  rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projective measurement; collapses and renormalizes in place."""
    p0, p1 = _branch_norms(state, qubit)
    outcome = _draw(p0, p1, rng)
    _collapse(state, qubit, outcome, p1 if outcome else p0)
    return outcome, state
