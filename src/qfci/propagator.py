"""Time evolution U = exp(i*tau*(E_max - H)) on register states.

Two independent routes: an exact one that multiplies eigencomponent
phases from supplied sector spectra, and a first-order Trotter product
over the second-quantized terms.  tau = 2*pi/(E_max - E_min) maps the
window (E_min, E_max] onto one phase turn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    FermionTerm,
    SectorSpectrum,
    _jordan_wigner,
    covered_coefficients,
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
    n_slices: int
    term_order: tuple[int, ...] | None = None  # permutation of term indices

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
        amps[block.determinants] = block.eigenvectors @ coeffs


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
    control: int,
) -> StateVector:
    """Controlled-U**power on a joint readout+system register, in place.

    U**power acts, as in u_power_exact, on the control-1 branch, whose
    system qubit j is joint qubit j below the control and j+1 above it.
    """
    n = state.n_qubits
    view = state.amplitudes.reshape(1 << (n - control - 1), 2, 1 << control)[:, 1, :]
    branch = view.reshape(-1)  # a view when the control is the lowest or top qubit
    _propagate(branch, spectra, window, power)
    view[...] = branch.reshape(view.shape)
    return state


# -- Trotter route -------------------------------------------------------


def _hermitian_groups(terms: list[FermionTerm],
                      order: tuple[int, ...] | None) -> list[list[FermionTerm]]:
    """Pair each term with its adjoint partner so every factor is unitary.

    Individual one-/two-body terms need not be Hermitian; for real
    integrals the adjoint of every emitted term is also emitted with the
    same coefficient, so grouping the pair keeps the product exact and
    norm-preserving.  Groups keep the order in which their first member
    appears.
    """
    sequence = list(order) if order is not None else list(range(len(terms)))
    if sorted(sequence) != list(range(len(terms))):
        raise ValueError("term_order must be a permutation of term indices")
    by_ops = {}
    for i, t in enumerate(terms):
        by_ops.setdefault(t.ops, []).append(i)

    used = [False] * len(terms)
    groups: list[list[FermionTerm]] = []
    for i in sequence:
        if used[i]:
            continue
        used[i] = True
        term = terms[i]
        group = [term]
        adj = term.adjoint_ops()
        if adj != term.ops:
            partner = next(
                (j for j in by_ops.get(adj, ()) if not used[j]), None
            )
            if partner is None:
                raise ValueError(
                    f"term {term.ops} lacks an adjoint partner; "
                    "Hamiltonian is not Hermitian"
                )
            used[partner] = True
            group.append(terms[partner])
        groups.append(group)
    return groups


def _group_strings(groups: list[list[FermionTerm]], n_qubits: int):
    """Pauli strings of all Hermitian groups, group by group, in one JW pass.

    Returns (x, z, coefficient) arrays; each group's strings come in the
    order and with the coefficients jordan_wigner gives for that group.
    Coefficients are those of the labeled (Hermitian) strings and must
    come out real; they do for any Hermitian-grouped real Hamiltonian.
    """
    terms = [t for group in groups for t in group]
    ids = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    op = _jordan_wigner(terms, n_qubits, ids)
    if np.any(np.abs(op.coeffs.imag) > 1e-12):
        raise ValueError("Hermitian group mapped to a complex Pauli coefficient")
    return op.x, op.z, op.coeffs.real


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

    Applies (prod_X exp(-i h_X tau/N))**N followed by the global phase
    exp(i tau E_max).  Each group exponential is exact: the strings of a
    Hermitian term pair share their X/Y support and carry real
    coefficients, hence commute, so exp reduces to a product of
    single-string rotations.  When the 2^n x 2^n slice matrix fits
    SLICE_MATRIX_BYTES and there are more slices than columns, the slice
    is applied once to the identity and the state then takes N mat-vecs;
    otherwise the slice is applied to the state N times.
    """
    x, z, c = _group_strings(_hermitian_groups(terms, plan.term_order), state.n_qubits)
    theta = window.tau / plan.n_slices
    rotations = list(zip(x.tolist(), z.tolist(), [theta * v for v in c.tolist()]))
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
