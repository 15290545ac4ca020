"""Second-quantized Hamiltonians, Jordan-Wigner mapping, sector spectra.

Qubit j stores the occupation of spin orbital j (|1> = occupied), on the
same little-endian index convention as the statevector module.  The
fermionic parity sign of mode p acting on a determinant is
(-1)**(number of occupied modes below p).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import comb

import numpy as np

from .errors import DimensionMismatch, SectorTooLarge
from .integrals import SpinOrbitalIntegrals

# Pauli strings below this magnitude are dropped during mapping
PRUNE_TOL = 1e-14
SECTOR_CAP = 20_000
# Elements per (terms x determinants) temporary in the sector build
CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, leftmost first.

    ops entries are (mode, is_creation); application to a ket starts
    from the last entry.  Lengths 0 (scalar), 2 and 4 appear in
    molecular Hamiltonians.
    """

    coefficient: float
    ops: tuple[tuple[int, bool], ...]

    def adjoint_ops(self) -> tuple[tuple[int, bool], ...]:
        return tuple((m, not c) for m, c in reversed(self.ops))


@dataclass(frozen=True)
class PauliString:
    coefficient: complex
    factors: tuple[tuple[int, str], ...]  # sorted (qubit, 'X'|'Y'|'Z')

    @property
    def weight(self) -> int:
        return len(self.factors)

    def word(self, n_qubits: int) -> str:
        letters = ["I"] * n_qubits
        for q, p in self.factors:
            letters[q] = p
        return "".join(letters)


@dataclass
class PauliOperator:
    n_qubits: int
    terms: list[PauliString]

    def to_text(self) -> str:
        """One line per string: coefficient then Pauli word (qubit 0 leftmost)."""
        lines = []
        for t in self.terms:
            c = t.coefficient
            coeff = f"{c.real:.12g}" if abs(c.imag) < 1e-12 else f"{c:.12g}"
            lines.append(f"{coeff}  {t.word(self.n_qubits)}")
        return "\n".join(lines)


def build_second_quantized(soi: SpinOrbitalIntegrals) -> list[FermionTerm]:
    """Emit h_pq a+_p a_q, (1/2)<pq|rs> a+_p a+_q a_s a_r and the scalar core."""
    n = soi.n_so
    terms: list[FermionTerm] = []
    if soi.core_energy != 0.0:
        terms.append(FermionTerm(float(soi.core_energy), ()))
    h = soi.h
    for p in range(n):
        for q in range(n):
            if h[p, q] != 0.0:
                terms.append(FermionTerm(float(h[p, q]), ((p, True), (q, False))))
    g = soi.g
    nz = np.argwhere(g != 0.0)
    for p, q, r, s in nz:
        terms.append(
            FermionTerm(
                0.5 * float(g[p, q, r, s]),
                ((int(p), True), (int(q), True), (int(s), False), (int(r), False)),
            )
        )
    return terms


# -- Jordan-Wigner ------------------------------------------------------
#
# Strings are carried as (x_mask, z_mask) for the operator X^x Z^z; the
# product rule picks up (-1)^popcount(z1 & x2).  A mode's ladder operator
# maps to (Z-chain) * (X -+ iY)/2, i.e. two mask components.


def _ladder_components(mode: int, creation: bool):
    bit = 1 << mode
    chain = bit - 1
    # a+ = chain * (X + XZ)/2,  a = chain * (X - XZ)/2
    sign = 0.5 if creation else -0.5
    return ((0.5, bit, chain), (sign, bit, chain | bit))


def _term_to_masks(term: FermionTerm) -> dict[tuple[int, int], complex]:
    acc = {(0, 0): complex(term.coefficient)}
    for mode, creation in term.ops:
        nxt: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in acc.items():
            for c2, x2, z2 in _ladder_components(mode, creation):
                sign = -1.0 if ((z1 & x2).bit_count() & 1) else 1.0
                key = (x1 ^ x2, z1 ^ z2)
                nxt[key] = nxt.get(key, 0.0) + c1 * c2 * sign
        acc = nxt
    return acc


def _masks_to_string(x: int, z: int, coeff: complex) -> PauliString:
    y = x & z
    # X^x Z^z = (-i)^popcount(y) * labeled string
    labeled = coeff * (-1j) ** y.bit_count()
    factors = []
    q = 0
    rest = x | z
    while rest:
        if rest & 1:
            bit = 1 << q
            if x & bit and z & bit:
                factors.append((q, "Y"))
            elif x & bit:
                factors.append((q, "X"))
            else:
                factors.append((q, "Z"))
        rest >>= 1
        q += 1
    return PauliString(labeled, tuple(factors))


def jordan_wigner(terms: list[FermionTerm], n_modes: int) -> PauliOperator:
    """Map fermionic terms to a merged Pauli operator on n_modes qubits."""
    merged: dict[tuple[int, int], complex] = {}
    for term in terms:
        for (x, z), c in _term_to_masks(term).items():
            if x >> n_modes or z >> n_modes:
                raise DimensionMismatch(
                    f"term touches mode beyond n_modes={n_modes}"
                )
            key = (x, z)
            merged[key] = merged.get(key, 0.0) + c
    strings = [
        _masks_to_string(x, z, c)
        for (x, z), c in sorted(merged.items())
        if abs(c) > PRUNE_TOL
    ]
    return PauliOperator(n_modes, strings)


# -- matrix-free application --------------------------------------------


def _string_masks(s: PauliString) -> tuple[int, int, complex]:
    x = z = 0
    ny = 0
    for q, p in s.factors:
        bit = 1 << q
        if p == "X":
            x |= bit
        elif p == "Z":
            z |= bit
        else:
            x |= bit
            z |= bit
            ny += 1
    # labeled coefficient -> X^x Z^z coefficient
    return x, z, s.coefficient * (1j) ** ny


def apply_ladder(amps: np.ndarray, mode: int, creation: bool) -> np.ndarray:
    """Apply a single a+_mode / a_mode with Jordan-Wigner parity signs."""
    dim = amps.size
    bit = 1 << mode
    below = bit - 1
    idx = np.arange(dim)
    occupied = (idx & bit).astype(bool)
    src = ~occupied if creation else occupied
    out = np.zeros_like(amps)
    sel = idx[src]
    signs = 1.0 - 2.0 * (np.bitwise_count(sel & below) & 1)
    out[sel ^ bit] = signs * amps[sel]
    return out


def apply_operator(op, state: np.ndarray) -> np.ndarray:
    """H|psi> for a PauliOperator or an iterable of FermionTerm.

    Matrix-free on the full 2**n space; the input array is not modified.
    """
    amps = np.asarray(state, dtype=np.complex128).reshape(-1)
    dim = amps.size
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise DimensionMismatch(f"state length {dim} is not a power of two")

    out = np.zeros_like(amps)
    if isinstance(op, PauliOperator):
        if op.n_qubits != n:
            raise DimensionMismatch(f"operator on {op.n_qubits} qubits, state on {n}")
        idx = np.arange(dim)
        for s in op.terms:
            x, z, c = _string_masks(s)
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            out[idx ^ x] += c * signs * amps
        return out

    for term in op:
        for mode, _ in term.ops:
            if mode >= n:
                raise DimensionMismatch(f"mode {mode} outside {n}-qubit register")
        v = amps
        for mode, creation in reversed(term.ops):
            v = apply_ladder(v, mode, creation)
        out += term.coefficient * v
    return out


# -- particle-number sectors --------------------------------------------


def sector_of(mask: int, n_orb: int) -> tuple[int, int]:
    alpha = mask & ((1 << n_orb) - 1)
    beta = mask >> n_orb
    return alpha.bit_count(), beta.bit_count()


def enumerate_sector(n_orb: int, n_alpha: int, n_beta: int) -> list[int]:
    """All determinant bitmasks of the (n_alpha, n_beta) sector, ascending."""
    alphas = [sum(1 << p for p in occ) for occ in combinations(range(n_orb), n_alpha)]
    betas = [sum(1 << (n_orb + p) for p in occ)
             for occ in combinations(range(n_orb), n_beta)]
    return sorted(a | b for a in alphas for b in betas)


@dataclass
class SectorSpectrum:
    """Dense eigendecomposition over one determinant basis.

    sector is (n_alpha, n_beta), or None for a generic/full-space block.
    eigenvectors columns are expressed over `determinants`, which lists
    the full-register basis indices the block lives on.  exact_eigensolve
    keeps them real (the integrals are real); consumers upcast on use.
    """

    sector: tuple[int, int] | None
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    determinants: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.determinants)

    def embed(self, column: int, n_qubits: int) -> np.ndarray:
        """Eigenvector as a full 2**n_qubits amplitude array."""
        full = np.zeros(1 << n_qubits, dtype=np.complex128)
        full[self.determinants] = self.eigenvectors[:, column]
        return full


def _term_runs(terms: list[FermionTerm], n_so: int):
    """Consecutive runs of equal op length as (modes, creation, coef) arrays.

    modes and creation are [T, k] with ops leftmost first, coef is [T];
    term order is kept.  Modes outside 0..n_so-1 raise DimensionMismatch.
    """
    runs = []
    for k, run in groupby(terms, key=lambda t: len(t.ops)):
        run = list(run)
        ops = np.array([t.ops for t in run], dtype=np.int64).reshape(len(run), k, 2)
        modes = ops[:, :, 0]
        bad = np.nonzero((modes < 0) | (modes >= n_so))[0]
        if bad.size:
            raise DimensionMismatch(
                f"term {run[bad[0]].ops} touches a mode outside 0..{n_so - 1}"
            )
        coef = np.array([t.coefficient for t in run], dtype=np.float64)
        runs.append((modes, ops[:, :, 1].astype(bool), coef))
    return runs


def _sector_matrix(
    terms: list[FermionTerm], n_so: int, dets: np.ndarray, sector
) -> np.ndarray:
    """Dense H over the sorted determinants, built over (terms x dets) blocks.

    Ladder ops act right to left on every determinant of a block at once;
    contributions are added in term order, so each cell sums exactly as a
    per-determinant, per-term loop would.
    """
    dim = dets.size
    flat = np.zeros(dim * dim)
    step = max(1, CHUNK_ELEMENTS // max(dim, 1))
    for modes, creation, coef in _term_runs(terms, n_so):
        for lo in range(0, coef.size, step):
            block = slice(lo, lo + step)
            bits = np.left_shift(1, modes[block])
            flags = creation[block]
            state = np.repeat(dets[None, :], bits.shape[0], axis=0)
            alive = np.ones(state.shape, dtype=bool)
            parity = np.zeros(state.shape, dtype=np.uint8)
            for o in range(bits.shape[1] - 1, -1, -1):
                bit = bits[:, o, None]
                alive &= ((state & bit) != 0) != flags[:, o, None]
                parity ^= np.bitwise_count(state & (bit - 1))
                state ^= bit
            t, j = np.nonzero(alive)
            out = state[t, j]
            i = np.minimum(np.searchsorted(dets, out), dim - 1)
            lost = np.nonzero(dets[i] != out)[0]
            if lost.size:
                # term left the sector; molecular terms never do
                raise DimensionMismatch(
                    f"term maps determinant {int(dets[j[lost[0]]]):#x} "
                    f"out of sector {sector}"
                )
            signs = 1.0 - 2.0 * (parity[t, j] & 1)
            np.add.at(flat, i * dim + j, coef[block][t] * signs)
    return flat.reshape(dim, dim)


def exact_eigensolve(
    terms: list[FermionTerm],
    n_so: int,
    sector: tuple[int, int],
    cap: int = SECTOR_CAP,
) -> SectorSpectrum:
    """Dense FCI diagonalization of one (n_alpha, n_beta) sector."""
    n_orb = n_so // 2
    n_alpha, n_beta = sector
    dim = comb(n_orb, n_alpha) * comb(n_orb, n_beta)
    if dim > cap:
        raise SectorTooLarge(f"sector {sector} has dimension {dim} > cap {cap}")
    dets = np.array(enumerate_sector(n_orb, n_alpha, n_beta), dtype=np.int64)
    mat = _sector_matrix(terms, n_so, dets, sector)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    return SectorSpectrum(
        sector=sector,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        determinants=dets,
    )


def spectra_for_state(
    terms: list[FermionTerm],
    n_so: int,
    amplitudes: np.ndarray,
    cap: int = SECTOR_CAP,
    tol: float = 1e-14,
) -> list[SectorSpectrum]:
    """Eigensolve every particle-number sector the state populates."""
    amps = np.asarray(amplitudes).reshape(-1)
    n_orb = n_so // 2
    sectors = sorted(
        {sector_of(int(i), n_orb) for i in np.nonzero(np.abs(amps) > tol)[0]}
    )
    return [exact_eigensolve(terms, n_so, s, cap=cap) for s in sectors]


def eigen_weights(amplitudes: np.ndarray, spectra: list[SectorSpectrum]):
    """Decompose a register state over block eigenvectors.

    Returns (weights, covered) where weights[(block, column)] = |<u|psi>|^2
    and covered is the total probability accounted for.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    weights: dict[tuple[int, int], float] = {}
    covered = 0.0
    for b, block in enumerate(spectra):
        sub = amps[block.determinants]
        coeffs = block.eigenvectors.conj().T @ sub
        covered += float(np.sum(np.abs(sub) ** 2))
        for i, c in enumerate(coeffs):
            weights[(b, i)] = float(abs(c) ** 2)
    return weights, covered
