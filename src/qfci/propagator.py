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
    _require_disjoint,
    jordan_wigner,
)
from .statevector import StateVector

UNCOVERED_TOL = 1e-12


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


def _group_strings(group: list[FermionTerm], n_qubits: int):
    """Pauli strings of one Hermitian group as (x, z, n_y, coefficient).

    Coefficients are those of the labeled (Hermitian) strings and must
    come out real; they do for any Hermitian-grouped real Hamiltonian.
    """
    op = jordan_wigner(group, n_qubits)
    if np.any(np.abs(op.coeffs.imag) > 1e-12):
        raise ValueError("Hermitian group mapped to a complex Pauli coefficient")
    ny = np.bitwise_count(op.x & op.z)
    return list(zip(op.x.tolist(), op.z.tolist(), ny.tolist(), op.coeffs.real.tolist()))


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
    single-string rotations.
    """
    n = state.n_qubits
    groups = _hermitian_groups(terms, plan.term_order)
    theta = window.tau / plan.n_slices
    compiled = []
    for group in groups:
        for x, z, ny, c in _group_strings(group, n):
            angle = theta * c
            if x == 0 and z == 0:
                compiled.append((None, None, None, complex(np.exp(-1j * angle))))
            else:
                compiled.append((x, z, (-1j) ** ny, angle))

    amps = state.amplitudes
    idx = np.arange(amps.size)
    sign_cache: dict[int, np.ndarray] = {}
    for _ in range(plan.n_slices):
        for x, z, phase, val in compiled:
            if x is None:
                amps *= val
                continue
            signs = sign_cache.get(z)
            if signs is None:
                signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
                sign_cache[z] = signs
            # exp(-i angle P) = cos(angle) I - i sin(angle) P with
            # (P psi)[j] = (-i)^n_y * (-1)^(z.j) * psi[j ^ x]
            p_psi = phase * signs * amps[idx ^ x]
            amps[:] = np.cos(val) * amps - 1j * np.sin(val) * p_psi
    amps *= np.exp(1j * window.tau * window.e_max)
    return state
