"""Independent dense oracles used to cross-check the sparse kernels.

Everything here is built from first principles (explicit matrices over
occupation bitstrings, scalar loops over histories, gate-by-gate
register simulation) and deliberately shares no code with the package
internals it validates.
"""
import math
from itertools import combinations

import numpy as np

from qfci.hamiltonian import FermionTerm, PauliOperator, PauliString
from qfci.phase_estimation import PhaseBits
from qfci.propagator import controlled_u_power_exact
from qfci.statevector import (
    HADAMARD,
    StateVector,
    apply_gate,
    measure_qubit,
    new_register,
    rz_phase,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(op: PauliOperator) -> np.ndarray:
    """Kron oracle; qubit 0 is the least significant factor."""
    dim = 1 << op.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s in op.terms:
        mat = np.eye(1, dtype=complex)
        word = s.word(op.n_qubits)
        for q in range(op.n_qubits - 1, -1, -1):
            mat = np.kron(mat, PAULI[word[q]])
        total += s.coefficient * mat
    return total


def dense_ladder(n: int, mode: int, creation: bool) -> np.ndarray:
    """Explicit matrix of one ladder operator over occupation bitstrings.

    Sign convention: (-1)**(occupied modes below the acted index).
    """
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for col in range(dim):
        occ = bool(col >> mode & 1)
        if occ == creation:
            continue
        sign = (-1) ** bin(col & ((1 << mode) - 1)).count("1")
        mat[col ^ (1 << mode), col] = sign
    return mat


def dense_fermion(terms, n: int) -> np.ndarray:
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        mat = np.eye(dim, dtype=complex)
        for mode, creation in t.ops:
            mat = mat @ dense_ladder(n, mode, creation)
        total += t.coefficient * mat
    return total


def dense_s_squared(n_orb: int) -> np.ndarray:
    """S^2 = S-.S+ + Sz(Sz + 1) over the blocked spin-orbital register."""
    n = 2 * n_orb
    dim = 1 << n
    s_plus = np.zeros((dim, dim), dtype=complex)
    for p in range(n_orb):
        s_plus += dense_ladder(n, p, True) @ dense_ladder(n, n_orb + p, False)
    s_z = np.zeros((dim, dim), dtype=complex)
    for p in range(n_orb):
        n_a = dense_ladder(n, p, True) @ dense_ladder(n, p, False)
        n_b = dense_ladder(n, n_orb + p, True) @ dense_ladder(n, n_orb + p, False)
        s_z += 0.5 * (n_a - n_b)
    return s_plus.conj().T @ s_plus + s_z @ (s_z + np.eye(dim))


def b_success_by_dict(weights, m: int, reps: int, b_down: int, b_up: int,
                      prune_tol: float = 1e-12):
    """Variant-B success probability by a dict of voted-bit histories.

    Walks the whole history tree: one scalar Born probability per history
    and eigencomponent and exact binomial majority sums.  Histories whose
    mass falls below prune_tol are dropped; with prune_tol=0.0 nothing is
    dropped and the result is the exact reference for the package's
    two-path product.  weights holds (weight, phase-in-turns) pairs;
    returns (probability, pruned mass, peak number of histories).
    """
    need = reps // 2 + 1

    def majority(p):
        q = 1.0 - p
        return sum(math.comb(reps, j) * p**j * q ** (reps - j)
                   for j in range(need, reps + 1))

    frontier = {0: 1.0}
    pruned = 0.0
    peak = 1
    for k in range(m, 0, -1):
        nxt = {}
        for v, mass in frontier.items():
            omega = -float(v) * 2.0 ** (k - m - 1)
            p1 = sum(
                w * math.sin(math.pi * math.fmod(2.0 ** (k - 1) * phase + omega, 1.0)) ** 2
                for w, phase in weights
            )
            q1 = majority(p1)
            for bit, q in ((1, q1), (0, 1.0 - q1)):
                if q <= 0.0:
                    continue
                share = mass * q
                if share < prune_tol:
                    pruned += share
                    continue
                key = v + (bit << (m - k))
                nxt[key] = nxt.get(key, 0.0) + share
        frontier = nxt
        peak = max(peak, len(frontier))
    return frontier.get(b_down, 0.0) + frontier.get(b_up, 0.0), pruned, peak


def ipea_b_run_gate_level(guess, spectra, cfg, rng):
    """One variant-B run simulated gate by gate on the statevector register.

    Every repetition of every bit rebuilds the joint register (readout on
    top of the guess's n qubits), applies H, controlled-U^(2^(k-1)),
    Rz(omega_k) and H to the readout and measures it.  Returns the voted
    outcome and the ones-count of every bit, most significant first.
    """
    n = guess.n_qubits
    reps = cfg.repetitions_per_bit
    later, ones_per_bit = [], []
    for k in range(cfg.m, 0, -1):
        omega = -sum(bit * 0.5 ** (j + 2) for j, bit in enumerate(later))
        ones = 0
        for _ in range(reps):
            joint = new_register(n + 1)
            joint.amplitudes[: 1 << n] = guess.amplitudes
            apply_gate(joint, HADAMARD, n)
            controlled_u_power_exact(joint, spectra, cfg.window, 1 << (k - 1))
            apply_gate(joint, rz_phase(omega), n)
            apply_gate(joint, HADAMARD, n)
            ones += measure_qubit(joint, n, rng)[0]
        later.insert(0, int(ones > reps // 2))
        ones_per_bit.insert(0, ones)
    return PhaseBits(tuple(later)).outcome, tuple(ones_per_bit)


def ipea_a_run_full_register(guess, spectra, cfg, rng):
    """One variant-A run simulated gate by gate on the full joint register.

    The readout rides on top of all n system qubits, so the register has
    n + 1 qubits whatever the spectra.  Every level applies H,
    controlled-U^(2^(k-1)), Rz(omega_k) and H to the readout as separate
    gates, measures it and resets it to |0>.  Returns the outcome integer
    and the final system state.
    """
    n = guess.n_qubits
    joint = new_register(n + 1)
    halves = joint.amplitudes.reshape(2, -1)
    halves[0] = guess.amplitudes
    later = []
    for k in range(cfg.m, 0, -1):
        omega = -sum(bit * 0.5 ** (j + 2) for j, bit in enumerate(later))
        apply_gate(joint, HADAMARD, n)
        controlled_u_power_exact(joint, spectra, cfg.window, 1 << (k - 1))
        apply_gate(joint, rz_phase(omega), n)
        apply_gate(joint, HADAMARD, n)
        bit = measure_qubit(joint, n, rng)[0]
        if bit:
            halves[0] = halves[1]
            halves[1] = 0.0
        later.insert(0, bit)
    return PhaseBits(tuple(later)).outcome, StateVector(n, halves[0].copy())


def sector_matrix_by_loop(terms, n_so: int, sector) -> np.ndarray:
    """Dense sector matrix by a scalar loop over determinants x terms.

    Determinants are the ascending bitmasks of the (n_alpha, n_beta)
    sector; each column walks every term's ladder ops right to left.
    """
    n_orb = n_so // 2
    n_alpha, n_beta = sector
    dets = sorted(
        sum(1 << p for p in a) | sum(1 << (n_orb + p) for p in b)
        for a in combinations(range(n_orb), n_alpha)
        for b in combinations(range(n_orb), n_beta)
    )
    index = {d: i for i, d in enumerate(dets)}
    mat = np.zeros((len(dets), len(dets)))
    for j, det in enumerate(dets):
        for term in terms:
            mask, sign = det, 1
            for mode, creation in reversed(term.ops):
                bit = 1 << mode
                if creation == bool(mask & bit):
                    break
                if (mask & (bit - 1)).bit_count() & 1:
                    sign = -sign
                mask ^= bit
            else:
                mat[index[mask], j] += sign * term.coefficient
    return mat


def jordan_wigner_by_dict(terms, n_modes: int) -> PauliOperator:
    """Jordan-Wigner by a dict of (x_mask, z_mask) -> coefficient per term.

    Reference for the package's array kernel.  Each ladder operator is
    the Z chain below its mode times (X -+ iY)/2, i.e. two mask
    components; the product of X^x1 Z^z1 and X^x2 Z^z2 picks up
    (-1)^popcount(z1 & x2).  Terms are merged in order, strings below
    1e-14 are dropped and the rest sorted by (x, z).
    """
    merged = {}
    for term in terms:
        acc = {(0, 0): complex(term.coefficient)}
        for mode, creation in term.ops:
            bit = 1 << mode
            chain = bit - 1
            sign2 = 0.5 if creation else -0.5
            nxt = {}
            for (x1, z1), c1 in acc.items():
                for c2, x2, z2 in ((0.5, bit, chain), (sign2, bit, chain | bit)):
                    sign = -1.0 if ((z1 & x2).bit_count() & 1) else 1.0
                    key = (x1 ^ x2, z1 ^ z2)
                    nxt[key] = nxt.get(key, 0.0) + c1 * c2 * sign
            acc = nxt
        for (x, z), c in acc.items():
            if x >> n_modes or z >> n_modes:
                raise ValueError(f"term touches mode beyond n_modes={n_modes}")
            merged[(x, z)] = merged.get((x, z), 0.0) + c
    strings = []
    for (x, z), c in sorted(merged.items()):
        if abs(c) <= 1e-14:
            continue
        factors = []
        for q in range(max(x | z, 1).bit_length()):
            bit = 1 << q
            if x & z & bit:
                factors.append((q, "Y"))
            elif x & bit:
                factors.append((q, "X"))
            elif z & bit:
                factors.append((q, "Z"))
        # X^x Z^z = (-i)^popcount(x & z) * labeled string
        strings.append(PauliString(c * (-1j) ** (x & z).bit_count(), tuple(factors)))
    return PauliOperator(n_modes, strings)


def build_second_quantized_by_loop(soi) -> list:
    """Fermion terms by a scalar loop over the nonzero integrals.

    Reference for the package's array build: the scalar core if nonzero,
    then h_pq a+_p a_q in row-major (p, q) order, then
    (1/2)<pq|rs> a+_p a+_q a_s a_r in row-major (p, q, r, s) order.
    """
    n = soi.n_so
    terms = []
    if soi.core_energy != 0.0:
        terms.append(FermionTerm(float(soi.core_energy), ()))
    h = soi.h
    for p in range(n):
        for q in range(n):
            if h[p, q] != 0.0:
                terms.append(FermionTerm(float(h[p, q]), ((p, True), (q, False))))
    g = soi.g
    for p, q, r, s in np.argwhere(g != 0.0):
        terms.append(
            FermionTerm(
                0.5 * float(g[p, q, r, s]),
                ((int(p), True), (int(q), True), (int(s), False), (int(r), False)),
            )
        )
    return terms
