"""Time evolution U = exp(i*tau*(E_max - H)) on register states.

Two independent routes: an exact one that multiplies eigencomponent
phases from supplied sector spectra, and a first-order Trotter product
over the Jordan-Wigner strings of the second-quantized terms.
tau = 2*pi/(E_max - E_min) maps the window (E_min, E_max] onto one
phase turn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    FermionTerm,
    SectorSpectrum,
    basis_product,
    covered_coefficients,
    jordan_wigner,
)
from .statevector import StateVector

# Largest dense Trotter slice matrix, 4^n complex entries, that trotter_u
# builds; larger registers apply the slice to the state itself
SLICE_MATRIX_BYTES = 16 << 20


@dataclass(frozen=True)
class EvolutionWindow:
    """Energy bracket (e_min, e_max] mapped onto phase turns [0, 1)."""

    e_max: float
    e_min: float

    def __post_init__(self):
        if not self.e_max > self.e_min:
            raise ValueError(f"empty window [{self.e_min}, {self.e_max}]")
        if not math.isfinite(self.width):
            raise ValueError(f"window [{self.e_min}, {self.e_max}] has no finite width")

    @property
    def width(self) -> float:
        return self.e_max - self.e_min

    @property
    def tau(self) -> float:
        """Radians of phase per unit energy: 2*pi/(e_max - e_min)."""
        return 2.0 * math.pi / self.width

    def phase_of(self, energy: float) -> float:
        """Phase in turns; energies inside the window land in [0, 1)."""
        return (self.e_max - energy) / self.width

    def energy_of(self, phase: float) -> float:
        return self.e_max - phase * self.width


@dataclass(frozen=True)
class TrotterPlan:
    """Number of first-order slices N that trotter_u splits U into."""

    n_slices: int

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("need at least one slice")


def recommend_slices(window: EvolutionWindow, epsilon: float) -> int:
    """First-order slice count N = ceil(tau^2/epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil(window.tau**2 / epsilon))


def _propagate(amps: np.ndarray, spectra: list[SectorSpectrum],
               window: EvolutionWindow, power: int) -> None:
    """U**power on a flat system amplitude array, in place.

    Coverage is checked before any amplitude is written.
    """
    coefficients = covered_coefficients(amps, spectra)
    for block, coeffs in zip(spectra, coefficients):
        turns = np.mod(power * window.phase_of(block.eigenvalues), 1.0)
        coeffs *= np.exp(2j * np.pi * turns)
        amps[block.determinants] = basis_product(block.eigenvectors, coeffs)


def u_power_exact(
    state: StateVector,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
    power: int = 1,
) -> StateVector:
    """U**power via eigenphase multiplication, in place.

    The spectra must cover (up to UNCOVERED_TOL of probability) every
    determinant the state populates, else MissingSector and the state is
    unchanged; blocks that share a determinant, or determinants past the
    register, raise DimensionMismatch.
    """
    _propagate(state.amplitudes, spectra, window, power)
    return state


def controlled_u_power_exact(
    state: StateVector,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
    power: int,
) -> StateVector:
    """Controlled-U**power on a joint readout+system register, in place.

    The control is the top qubit; U**power acts, as in u_power_exact, on
    the control-1 half, whose qubit j is system qubit j.
    """
    _propagate(state.amplitudes.reshape(2, -1)[1], spectra, window, power)
    return state


# -- Trotter route -------------------------------------------------------


def _apply_slice(block: np.ndarray, rotations, signs: dict) -> None:
    """One Trotter slice, prod exp(-i angle P), on each column of block.

    rotations lists (x, z, angle) per string in slice order; block is
    (2^n, columns) and is updated in place; signs caches the (-1)^(z.j)
    column of each z mask across calls.
    """
    idx = np.arange(block.shape[0])
    for x, z, angle in rotations:
        if x == 0 and z == 0:
            block *= complex(np.exp(-1j * angle))
            continue
        sign = signs.get(z)
        if sign is None:
            sign = signs[z] = (1.0 - 2.0 * (np.bitwise_count(idx & z) & 1))[:, None]
        # exp(-i angle P) = cos(angle) I - i sin(angle) P with
        # (P psi)[j] = (-i)^n_y * (-1)^(z.j) * psi[j ^ x]
        p_psi = (-1j) ** (x & z).bit_count() * sign * block[idx ^ x]
        block[:] = np.cos(angle) * block - 1j * np.sin(angle) * p_psi


def trotter_u(
    state: StateVector,
    terms: list[FermionTerm],
    window: EvolutionWindow,
    plan: TrotterPlan,
) -> StateVector:
    """First-order Trotter approximation of U, in place.

    Applies (prod_s exp(-i c_s P_s tau/N))**N followed by the global phase
    exp(i tau E_max), one rotation per string P_s of the merged operator
    jordan_wigner(terms), in its (x, z) order: the strings that
    resources.count_u and count_controlled_u price.  The coefficients c_s
    must be real, i.e. the terms Hermitian, else ValueError.  When the
    2^n x 2^n slice matrix fits SLICE_MATRIX_BYTES and there are more
    slices than columns, the slice is applied once to the identity and the
    state then takes N mat-vecs; otherwise the slice is applied to the
    state N times.
    """
    op = jordan_wigner(terms, state.n_qubits)
    if np.any(np.abs(op.coeffs.imag) > 1e-12):
        raise ValueError("terms map to a complex Pauli coefficient; "
                         "Hamiltonian is not Hermitian")
    theta = window.tau / plan.n_slices
    rotations = list(zip(op.x.tolist(), op.z.tolist(),
                         [theta * v for v in op.coeffs.real.tolist()]))
    amps = state.amplitudes
    signs: dict[int, np.ndarray] = {}
    dim = amps.size
    if dim * dim * 16 <= SLICE_MATRIX_BYTES and plan.n_slices > dim:
        step = np.eye(dim, dtype=np.complex128)
        _apply_slice(step, rotations, signs)
        psi = amps
        for _ in range(plan.n_slices):
            psi = step @ psi
        amps[:] = psi
    else:
        column = amps.reshape(dim, 1)
        for _ in range(plan.n_slices):
            _apply_slice(column, rotations, signs)
    amps *= np.exp(1j * window.tau * window.e_max)
    return state
