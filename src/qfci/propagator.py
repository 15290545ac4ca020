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

from .errors import MissingSector
from .hamiltonian import (
    FermionTerm,
    SectorSpectrum,
    _jordan_wigner,
    _require_disjoint,
)
from .statevector import StateVector

UNCOVERED_TOL = 1e-12
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


def _insert_control_bit(dets: np.ndarray, control: int) -> np.ndarray:
    """Joint-register indices of system determinants with control bit set.

    System qubit j maps to joint qubit j for j < control and to j+1
    otherwise.
    """
    low = dets & ((1 << control) - 1)
    high = dets >> control
    return low | (high << (control + 1)) | (1 << control)


def _phase_multiply(amps: np.ndarray, indices: np.ndarray, block: SectorSpectrum,
                    window: EvolutionWindow, power: int) -> float:
    sub = amps[indices]
    weight = float(np.sum(np.abs(sub) ** 2))
    coeffs = block.eigenvectors.conj().T @ sub
    turns = np.mod(power * window.phase_of(block.eigenvalues), 1.0)
    coeffs *= np.exp(2j * np.pi * turns)
    amps[indices] = block.eigenvectors @ coeffs
    return weight


def u_power_exact(
    state: StateVector,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
    power: int = 1,
) -> StateVector:
    """U**power via eigenphase multiplication, in place.

    The spectra must cover (up to UNCOVERED_TOL of probability) every
    determinant the state populates, else MissingSector; blocks that
    share a determinant raise DimensionMismatch.
    """
    _require_disjoint(spectra)
    amps = state.amplitudes
    total = float(np.sum(np.abs(amps) ** 2))
    covered = 0.0
    for block in spectra:
        covered += _phase_multiply(amps, np.asarray(block.determinants), block,
                                   window, power)
    if total - covered > UNCOVERED_TOL:
        raise MissingSector(
            f"{total - covered:.3e} of squared norm outside supplied spectra"
        )
    return state


def controlled_u_power_exact(
    state: StateVector,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
    power: int,
    control: int,
) -> StateVector:
    """Controlled-U**power on a joint readout+system register, in place."""
    _require_disjoint(spectra)
    amps = state.amplitudes
    n = state.n_qubits
    view = amps.reshape(1 << (n - control - 1), 2, 1 << control)
    branch_total = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    covered = 0.0
    for block in spectra:
        joint = _insert_control_bit(np.asarray(block.determinants), control)
        if int(joint.max(initial=0)) >= amps.size:
            raise MissingSector(
                f"spectrum determinants exceed joint register of {n} qubits"
            )
        covered += _phase_multiply(amps, joint, block, window, power)
    if branch_total - covered > UNCOVERED_TOL:
        raise MissingSector(
            f"{branch_total - covered:.3e} of control-branch norm outside spectra"
        )
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
