"""Second-quantized Hamiltonians, Jordan-Wigner mapping, sector spectra.

Qubit j stores the occupation of spin orbital j (|1> = occupied), on the
same little-endian index convention as the statevector module.  The
fermionic parity sign of mode p acting on a determinant is
(-1)**(number of occupied modes below p).
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, groupby
from math import comb, isqrt

import numpy as np

from .errors import DimensionMismatch, ElectronCountExceedsOrbitals, MissingSector, SectorTooLarge
from .integrals import SpinOrbitalIntegrals

# Pauli strings below this magnitude are dropped during mapping
PRUNE_TOL = 1e-14
# Squared norm a propagated or decomposed state may keep outside the spectra
UNCOVERED_TOL = 1e-12
# Peak bytes per matrix element of a dense sector solve: the float64
# matrix, eigh's copy of it, its divide-and-conquer workspace (two
# matrices) and the eigenvectors; measured at 5.1-5.3 x 8 bytes
SOLVE_BYTES_PER_ELEMENT = 5 * 8
SECTOR_BYTE_BUDGET = 2 << 30
SECTOR_CAP = isqrt(SECTOR_BYTE_BUDGET // SOLVE_BYTES_PER_ELEMENT)
# Elements per (terms x strings) table and per pair array in the sector build,
# and per row or column slab the component search reads
CHUNK_ELEMENTS = 1 << 14
# Mask components per block in Jordan-Wigner; each block is one insert
# into the running sorted key set, so larger blocks mean fewer inserts
JW_CHUNK_ELEMENTS = 1 << 16
# int64 masks with headroom for the sign bit
MAX_JW_MODES = 62
# i**n for n = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, leftmost first.

    ops entries are (mode, is_creation); application to a ket starts
    from the last entry.  Lengths 0 (scalar), 2 and 4 appear in
    molecular Hamiltonians.
    """

    coefficient: float
    ops: tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class PauliString:
    coefficient: complex
    factors: tuple[tuple[int, str], ...]  # sorted (qubit, 'X'|'Y'|'Z')

    def word(self, n_qubits: int) -> str:
        letters = ["I"] * n_qubits
        for q, p in self.factors:
            letters[q] = p
        return "".join(letters)


def _factors(x: int, z: int) -> tuple[tuple[int, str], ...]:
    """Sorted (qubit, letter) factors of the labeled string with masks x, z."""
    factors = []
    rest = x | z
    while rest:
        low = rest & -rest
        letter = "Y" if x & z & low else "X" if x & low else "Z"
        factors.append((low.bit_length() - 1, letter))
        rest ^= low
    return tuple(factors)


class _StringView(Sequence):
    """PauliString objects of an operator, built only when read."""

    def __init__(self, op: "PauliOperator"):
        self._op = op

    def __len__(self) -> int:
        return self._op.x.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        op = self._op
        return PauliString(complex(op.coeffs[i]), _factors(int(op.x[i]), int(op.z[i])))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class PauliOperator:
    """sum_i coeffs[i] * (labeled Pauli string i) on n_qubits qubits.

    String i carries X on the bits of x[i] & ~z[i], Y on x[i] & z[i] and
    Z on z[i] & ~x[i] (int64 masks, qubit j = bit j); coeffs[i] is the
    coefficient of that labeled string.  ``terms`` is a PauliString view
    of the same arrays.
    """

    def __init__(self, n_qubits: int, strings: Iterable[PauliString] = ()):
        xs, zs, coeffs = [], [], []
        for s in strings:
            x = z = 0
            for q, letter in s.factors:
                if letter != "Z":
                    x |= 1 << q
                if letter != "X":
                    z |= 1 << q
            xs.append(x)
            zs.append(z)
            coeffs.append(s.coefficient)
        self.n_qubits = n_qubits
        self.x = np.array(xs, dtype=np.int64)
        self.z = np.array(zs, dtype=np.int64)
        self.coeffs = np.array(coeffs, dtype=np.complex128)

    @classmethod
    def from_masks(cls, n_qubits: int, x: np.ndarray, z: np.ndarray,
                   coeffs: np.ndarray) -> "PauliOperator":
        op = cls(n_qubits)
        op.x, op.z, op.coeffs = x, z, coeffs
        return op

    @property
    def terms(self) -> _StringView:
        return _StringView(self)


class FermionTerms(Sequence):
    """FermionTerm objects stored as runs of term arrays, built only when read.

    Each run is (modes int64[T, k], creation bool[T, k], coef float64[T])
    with ops leftmost first; runs are non-empty and kept in term order.
    ``len()`` builds no FermionTerm.  ``hermitian`` (read-only) is True only
    for build_second_quantized output whose terms' adjoints are all present
    with equal coefficients; jordan_wigner then skips the cancelling strings.
    """

    def __init__(self, runs: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 hermitian: bool = False):
        self.runs = tuple(run for run in runs if run[2].size)
        self._ends = np.cumsum([run[2].size for run in self.runs], dtype=np.int64)
        self._hermitian = hermitian

    @property
    def hermitian(self) -> bool:
        return self._hermitian

    @classmethod
    def from_terms(cls, terms: Iterable[FermionTerm]) -> "FermionTerms":
        """Arrays of hand-built terms, one run per stretch of equal op length."""
        runs = []
        for k, run in groupby(terms, key=lambda t: len(t.ops)):
            run = list(run)
            ops = np.fromiter(
                chain.from_iterable(chain.from_iterable(t.ops for t in run)),
                dtype=np.int64, count=len(run) * k * 2,
            ).reshape(len(run), k, 2)
            coef = np.fromiter((t.coefficient for t in run), dtype=np.float64, count=len(run))
            runs.append((ops[:, :, 0], ops[:, :, 1].astype(bool), coef))
        return cls(runs)

    def __len__(self) -> int:
        return int(self._ends[-1]) if self.runs else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        r = int(np.searchsorted(self._ends, i, side="right"))
        modes, creation, coef = self.runs[r]
        j = i - (int(self._ends[r - 1]) if r else 0)
        return FermionTerm(float(coef[j]), tuple(zip(modes[j].tolist(), creation[j].tolist())))

    def __iter__(self):
        for modes, creation, coef in self.runs:
            for m, c, v in zip(modes.tolist(), creation.tolist(), coef.tolist()):
                yield FermionTerm(v, tuple(zip(m, c)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def build_second_quantized(soi: SpinOrbitalIntegrals) -> FermionTerms:
    """Emit the scalar core, h_pq a+_p a_q and (1/2)<pq|rs> a+_p a+_q a_s a_r.

    Zero integrals are skipped; h terms come in row-major (p, q) order and
    g terms in row-major (p, q, r, s) order.  The terms are marked hermitian
    when h == h.T and g_pqrs == g_rspq hold bit for bit: the adjoint of
    term (p, q) is term (q, p), and that of term (p, q, r, s) is (r, s, p, q).
    """
    h, g = (np.asarray(t, dtype=np.float64) for t in (soi.h, soi.g))
    runs = []
    if soi.core_energy != 0.0:
        runs.append((np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=bool),
                     np.array([float(soi.core_energy)])))
    # (tensor, index order of the ops, creation flags, scale): p+ q- and p+ q+ s- r-
    for tensor, order, creation, scale in (
        (h, [0, 1], [True, False], 1.0),
        (g, [0, 1, 3, 2], [True, True, False, False], 0.5),
    ):
        nonzero = tensor != 0.0
        modes = np.argwhere(nonzero)[:, order]
        runs.append((modes, np.broadcast_to(np.array(creation), modes.shape),
                     scale * tensor[nonzero]))
    hermitian = np.array_equal(h, h.T) and np.array_equal(g, g.transpose(2, 3, 0, 1))
    return FermionTerms(runs, hermitian)


def _term_masks(modes: np.ndarray, creation: np.ndarray, coef: np.ndarray):
    """((occ, empty, flip, chain), coef) of a block of k-op terms.

    One right-to-left walk over each term's ops: term t maps a determinant
    D with the occ[t] bits set and the empty[t] bits clear to
    coef[t] (-1)^popcount(D & chain[t]) |D ^ flip[t]>, and every other
    determinant to zero; occ & empty != 0 marks a term that is zero.  The
    sign each op takes from the bits flipped before it goes into coef.
    """
    occ, empty, flip, chain = masks = np.zeros((4, coef.size), dtype=np.int64)
    for bit, create in zip(np.left_shift(1, modes).T[::-1], creation.T[::-1]):
        need = np.where(((flip & bit) != 0) == create, bit, 0)
        occ |= need
        empty |= bit ^ need
        coef = coef * (1.0 - 2.0 * (np.bitwise_count(flip & (bit - 1)) & 1))
        chain ^= bit - 1
        flip ^= bit
    return masks, coef


# -- Jordan-Wigner ------------------------------------------------------
#
# Strings are carried as (x_mask, z_mask) for the operator X^x Z^z.  Read
# through _term_masks, a term is coef X^flip Z^chain times the projectors
# (1 - Z_b)/2 on its occ bits and (1 + Z_b)/2 on its empty bits.


def _term_components(modes: np.ndarray, creation: np.ndarray, coef: np.ndarray,
                     even_y: bool = False):
    """Pauli sums of a block of k-op terms as (x, z, value), term by term.

    Expanding a term's d = popcount(occ | empty) projector factors gives
    one string per subset c of those bits: x = flip, z = chain ^ XOR(c)
    and value coef (-1)^|c & occ| / 2^d.  The bits sit lowest first in k
    slots and a subset that picks an empty slot is skipped, so each term
    gives each z once; terms with occ & empty != 0 give nothing.  With
    even_y, strings with an odd popcount(x & z) (odd Y count) are not
    emitted.
    """
    k = modes.shape[1]
    (occ, empty, x, chain), coef = _term_masks(modes, creation, coef)
    cond = occ | empty
    d = np.bitwise_count(cond)
    slots = np.zeros(modes.shape, dtype=np.int64)
    for o in range(k):
        slots[:, o] = cond & -cond
        cond = cond ^ slots[:, o]
    # picks[o, c]: subset c picks slot o; rows of the [T, 2^k] arrays are terms
    picks = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
    picked = slots @ picks
    z = chain[:, None] ^ picked
    keep = ((occ & empty) == 0)[:, None] & ((np.arange(1 << k) >> d[:, None]) == 0)
    if even_y:
        keep &= (np.bitwise_count(x[:, None] & z) & 1) == 0
    at = np.flatnonzero(keep)
    t, picked = at >> k, picked.take(at)
    sign = 1.0 - 2.0 * (np.bitwise_count(picked & occ[t]) & 1)
    return x[t], z.take(at), sign * (coef * 0.5**d)[t]


def _keys(x: np.ndarray, z: np.ndarray, n_modes: int) -> np.ndarray:
    """Sort keys that order strings by (x, z).

    Up to 31 modes both masks pack into one int64; wider masks become
    their big-endian bytes as a void key, which numpy orders by memcmp,
    i.e. lexicographically.
    """
    if 2 * n_modes <= 63:
        return (x << n_modes) | z
    packed = np.empty((x.size, 2), dtype=">i8")
    packed[:, 0] = x
    packed[:, 1] = z
    return packed.view("V16").ravel()


def _unkey(keys: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) masks of keys made by _keys."""
    if keys.dtype == np.int64:
        return keys >> n_modes, keys & ((1 << n_modes) - 1)
    x, z = keys.view(">i8").reshape(keys.size, 2).T.astype(np.int64, order="C")
    return x, z


def _merge_block(keys: np.ndarray, acc: np.ndarray, bkeys: np.ndarray,
                 value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add a block's values into the sorted key set and its sums.

    Keys of the block not yet in the set are inserted with a zero sum;
    the block's values are then added in block order.
    """
    ukeys, inverse = np.unique(bkeys, return_inverse=True)
    at = np.searchsorted(keys, ukeys)
    fresh = at == keys.size
    fresh[~fresh] = keys[at[~fresh]] != ukeys[~fresh]
    keys = np.insert(keys, at[fresh], ukeys[fresh])
    acc = np.insert(acc, at[fresh], 0.0)
    # block key i lands after the at[i] older keys and the fresh keys below it
    np.add.at(acc, (at + np.cumsum(fresh) - fresh)[inverse], value)
    return keys, acc


def jordan_wigner(terms: Sequence[FermionTerm], n_modes: int) -> PauliOperator:
    """Map fermionic terms to a merged Pauli operator on n_modes qubits.

    Terms are expanded in blocks of at most JW_CHUNK_ELEMENTS mask
    components; each block's per-term sums are added into the merged
    coefficients in term order, so every coefficient sums exactly as a
    term-by-term dict merge would.  Strings at or below PRUNE_TOL are
    dropped and the rest ordered by (x, z).  On terms marked hermitian the
    odd-Y strings, where each term's and its adjoint's values cancel, are
    not expanded; every other string sums as on unmarked terms, bit for bit.
    """
    if n_modes > MAX_JW_MODES:
        raise DimensionMismatch(
            f"n_modes={n_modes} exceeds the {MAX_JW_MODES}-mode mask width"
        )
    empty = np.zeros(0, dtype=np.int64)
    keys = _keys(empty, empty, n_modes)
    acc = np.zeros(0)
    even_y = isinstance(terms, FermionTerms) and terms.hermitian
    for modes, creation, coef in _term_runs(terms, n_modes):
        step = max(1, JW_CHUNK_ELEMENTS >> modes.shape[1])
        for lo in range(0, coef.size, step):
            block = slice(lo, lo + step)
            x, z, value = _term_components(modes[block], creation[block], coef[block], even_y)
            keys, acc = _merge_block(keys, acc, _keys(x, z, n_modes), value)
    keep = np.abs(acc) > PRUNE_TOL
    x, z = _unkey(keys[keep], n_modes)
    # X^x Z^z = (-i)^popcount(x & z) * labeled string
    coeffs = acc[keep] * _I_POWERS[np.bitwise_count(x & z) & 3].conj()
    return PauliOperator.from_masks(n_modes, x, z, coeffs)


# -- matrix-free application --------------------------------------------


def apply_operator(op, state: np.ndarray) -> np.ndarray:
    """H|psi> for a PauliOperator or an iterable of FermionTerm.

    Matrix-free on the full 2**n space; the input array is not modified.
    Fermion terms act through their _term_masks; a mode outside 0..n-1
    raises DimensionMismatch.
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
        # labeled coefficient -> X^x Z^z coefficient
        masked = op.coeffs * _I_POWERS[np.bitwise_count(op.x & op.z) & 3]
        for x, z, c in zip(op.x.tolist(), op.z.tolist(), masked.tolist()):
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            out[idx ^ x] += c * signs * amps
        return out

    idx = np.arange(dim)
    for modes, creation, coef in _term_runs(op, n):
        masks, coef = _term_masks(modes, creation, coef)
        for (occ, empty, flip, chain), c in zip(masks.T.tolist(), coef.tolist()):
            alive = idx[((idx & occ) == occ) & ((idx & empty) == 0)]
            signs = 1.0 - 2.0 * (np.bitwise_count(alive & chain) & 1)
            out[alive ^ flip] += c * signs * amps[alive]
    return out


# -- particle-number sectors --------------------------------------------


def sector_of(mask: int, n_orb: int) -> tuple[int, int]:
    alpha = mask & ((1 << n_orb) - 1)
    beta = mask >> n_orb
    return alpha.bit_count(), beta.bit_count()


def enumerate_sector(n_orb: int, n_alpha: int, n_beta: int) -> list[int]:
    """All determinant bitmasks of the (n_alpha, n_beta) sector, ascending."""
    if max(n_alpha, n_beta) > n_orb:
        raise ElectronCountExceedsOrbitals(
            f"({n_alpha},{n_beta}) electrons into {n_orb} spatial orbitals")
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


def _term_runs(terms: Iterable[FermionTerm], n_so: int):
    """The (modes, creation, coef) runs of FermionTerms or of a term list.

    modes and creation are [T, k] with ops leftmost first, coef is [T];
    term order is kept.  Modes outside 0..n_so-1 raise DimensionMismatch.
    """
    if not isinstance(terms, FermionTerms):
        terms = FermionTerms.from_terms(terms)
    start = 0
    for modes, _, coef in terms.runs:
        bad = np.nonzero((modes < 0) | (modes >= n_so))[0]
        if bad.size:
            raise DimensionMismatch(
                f"term {terms[start + int(bad[0])].ops} touches a mode outside 0..{n_so - 1}"
            )
        start += coef.size
    return terms.runs


def _string_entries(strings: np.ndarray, masks: np.ndarray, scale: int, dim: int):
    """Alive (term, string) entries of a term block on one spin, term-major: the
    term, cell part (j * dim + i) * scale of string i flipped to j, sign, j found."""
    occ, empty, flip, chain = masks[:, :, None]
    t, i = np.nonzero(((strings & occ) == occ) & ((strings & empty) == 0))
    image = strings[i] ^ flip[t, 0]
    j = np.searchsorted(strings, image)
    sign = 1.0 - 2.0 * (np.bitwise_count(strings[i] & chain[t, 0]) & 1)
    return t, (j * dim + i) * scale, sign, strings.take(j, mode="clip") == image


def _sector_matrix(
    terms: Sequence[FermionTerm], n_so: int, dets: np.ndarray, sector
) -> np.ndarray:
    """Dense H over the sector's determinants, in enumerate_sector's order.

    Each term's _term_masks, tested per spin on the ascending strings,
    give its alive pairs as a product of two lists, added in term order:
    each cell sums as a per-determinant, per-term loop would.  Blocks of
    `step` terms and beta entries bound string tables and pairs by
    CHUNK_ELEMENTS.
    """
    n_orb, dim = n_so // 2, dets.size
    n_a = max(comb(n_orb, sector[0]), 1)
    alphas, betas = dets[:n_a] & ((1 << n_orb) - 1), dets[::n_a] >> n_orb
    flat = np.zeros(dim * dim)
    step = max(1, CHUNK_ELEMENTS // max(1, alphas.size, betas.size))
    for modes, creation, coef in _term_runs(terms, n_so):
        masks, coef = _term_masks(modes, creation, coef)
        for lo in range(0, coef.size, step):
            block = masks[:, lo:lo + step]
            ta, ka, sa, fa = _string_entries(alphas, block & ((1 << n_orb) - 1), 1, dim)
            tb, kb, sb, fb = _string_entries(betas, block >> n_orb, n_a, dim)
            # beta entry e pairs with the n[e] alpha entries of its term from first[e]
            count_a = np.bincount(ta, minlength=step)
            first, n = (np.cumsum(count_a) - count_a)[tb], count_a[tb]
            value_b = coef[lo:][tb] * sb
            starts = np.cumsum(n) - n
            for e0 in range(0, tb.size, step):
                b = np.repeat(np.arange(e0, min(e0 + step, tb.size)), n[e0:e0 + step])
                a = first[b] + np.arange(starts[e0], starts[e0] + b.size) - starts[b]
                if not (fa[a] & fb[b]).all():  # the term left the sector; molecular terms never do
                    d = int(dets[(kb[b] + ka[a])[np.argmin(fa[a] & fb[b])] % dim])
                    raise DimensionMismatch(f"term maps determinant {d:#x} out of sector {sector}")
                np.add.at(flat, kb[b] + ka[a], value_b[b] * sa[a])
    return flat.reshape(dim, dim)


def exact_eigensolve(
    terms: Sequence[FermionTerm],
    n_so: int,
    sector: tuple[int, int],
) -> SectorSpectrum:
    """FCI diagonalization of one (n_alpha, n_beta) sector, block by block.

    The blocks are the connected components of the sector matrix's exact
    nonzero pattern, so symmetry-forbidden couplings (exact zeros) split
    the solve.  Each block gets one dense eigh; the eigenpairs are merged
    in ascending eigenvalue order, ties kept in component order, and each
    eigenvector is exactly zero off its component.  A one-component
    sector gets the bits of eigh on the whole matrix.
    """
    n_orb = n_so // 2
    n_alpha, n_beta = sector
    dim = comb(n_orb, n_alpha) * comb(n_orb, n_beta)
    if dim > SECTOR_CAP:
        raise SectorTooLarge(
            f"sector {sector} has dimension {dim} > cap {SECTOR_CAP}; a dense solve "
            f"needs about {dim * dim * SOLVE_BYTES_PER_ELEMENT / 2**30:.1f} GiB"
        )
    dets = np.array(enumerate_sector(n_orb, n_alpha, n_beta), dtype=np.int64)
    mat = _sector_matrix(terms, n_so, dets, sector)
    members = _components(mat)
    blocks = [mat[np.ix_(rows, rows)] for rows in members]
    del mat  # so a one-component solve peaks as one dense eigh, within SECTOR_CAP
    solved = [np.linalg.eigh(blocks.pop(0)) for _ in members]
    values = np.concatenate([w for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(dim)
    columns = np.split(column, np.cumsum([rows.size for rows in members])[:-1])
    eigenvectors = np.zeros((dim, dim))
    for rows, cols, (_, v) in zip(members, columns, solved):
        eigenvectors[np.ix_(rows, cols)] = v
    return SectorSpectrum(
        sector=sector,
        eigenvalues=values[order],
        eigenvectors=eigenvectors,
        determinants=dets,
    )


def _components(mat: np.ndarray) -> list[np.ndarray]:
    """Row indices of each connected component of mat's nonzero pattern.

    A breadth-first search from the lowest row not yet reached, reading
    the frontier's rows and columns CHUNK_ELEMENTS entries at a time, so
    no dim x dim temporary is made: components come ordered by their
    lowest row, their rows ascending.
    """
    step = max(1, CHUNK_ELEMENTS // mat.shape[0])
    unseen = np.ones(mat.shape[0], dtype=bool)
    members = []
    while unseen.any():
        reached = np.zeros_like(unseen)
        frontier = np.flatnonzero(unseen)[:1]
        while frontier.size:
            reached[frontier] = True
            near = np.zeros_like(unseen)
            for lo in range(0, frontier.size, step):
                rows = frontier[lo:lo + step]
                near |= (mat[rows] != 0).any(axis=0) | (mat[:, rows] != 0).any(axis=1)
            frontier = np.flatnonzero(near & ~reached)
        unseen &= ~reached
        members.append(np.flatnonzero(reached))
    return members


def _require_disjoint(spectra: list[SectorSpectrum]) -> None:
    """DimensionMismatch if two blocks share a determinant.

    A single block needs no check, which keeps the per-bit propagator
    calls of one-sector scans free of it.
    """
    if len(spectra) < 2:
        return
    dets = np.concatenate([np.asarray(b.determinants) for b in spectra])
    if np.unique(dets).size != dets.size:
        raise DimensionMismatch("supplied spectra share a determinant")


def basis_product(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u @ x for contiguous complex x; a real u takes one BLAS call on x's (n, 2) view."""
    if np.iscomplexobj(u):
        return u @ x
    return (u @ x.view(np.float64).reshape(-1, 2)).view(np.complex128).reshape(-1)


def eigen_coefficients(amplitudes: np.ndarray, spectra: list[SectorSpectrum]):
    """Project a register state onto the block eigenvectors.

    Returns (coefficients, uncovered): coefficients[b] = u_b^dagger psi[dets_b]
    for each block, and uncovered = |psi|^2 minus the blocks' squared norms
    summed in block order.  Blocks that share a determinant, or that index
    past the register, raise DimensionMismatch.
    """
    _require_disjoint(spectra)
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    coefficients = []
    covered = 0.0
    for block in spectra:
        dets = np.asarray(block.determinants)
        if int(dets.max(initial=0)) >= amps.size:
            raise DimensionMismatch(f"spectrum determinants exceed {amps.size} amplitudes")
        sub = amps[dets]
        covered += np.vdot(sub, sub).real
        coefficients.append(basis_product(block.eigenvectors.conj().T, sub))
    return coefficients, float(np.vdot(amps, amps).real - covered)


def covered_coefficients(amplitudes: np.ndarray,
                         spectra: list[SectorSpectrum]) -> list[np.ndarray]:
    """eigen_coefficients of a state the spectra cover: MissingSector if more
    than UNCOVERED_TOL of its squared norm lies outside the blocks."""
    coefficients, uncovered = eigen_coefficients(amplitudes, spectra)
    if uncovered > UNCOVERED_TOL:
        raise MissingSector(f"{uncovered:.3e} of squared norm outside supplied spectra")
    return coefficients


def squared_moduli(coefficients: list[np.ndarray]) -> list[float]:
    """abs(c) ** 2 of every coefficient, blocks in order, as Python scalars:
    numpy's array abs and square round differently in the last bit."""
    return [abs(c) ** 2 for block in coefficients for c in block.tolist()]
