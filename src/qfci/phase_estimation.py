"""Iterative phase estimation, variants A and B, plus exact analytics.

Bits of the phase phi = 0.phi_1 phi_2 ... phi_m (turns) are measured
from the least significant (k = m) upward; earlier results feed back
through the readout rotation omega_k.  Variant A keeps the system
register alive across iterations so it collapses onto an eigenstate;
variant B rebuilds the guess every repetition and majority-votes each
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, WeightNormalization
from .hamiltonian import (
    SECTOR_BYTE_BUDGET,
    SectorSpectrum,
    covered_coefficients,
    eigen_coefficients,
    squared_moduli,
)
from .propagator import EvolutionWindow, controlled_u_power_exact
from .statevector import (
    HADAMARD,
    StateVector,
    _branch_norms,
    _collapse,
    _draw,
    apply_gate,
    measure_qubit,
    new_register,
    rz_phase,
)

# A float64 phase carries 52 fractional bits; more cannot be resolved.
MAX_BITS = 52
# Peak bytes per outcome of pea_distribution, whose temporaries measured
# 7.1 float64 arrays of 2^m, and the most it may take
DISTRIBUTION_BYTES_PER_OUTCOME = 8 * 8
DISTRIBUTION_BYTE_BUDGET = SECTOR_BYTE_BUDGET
# Most bytes of joint-register amplitudes an ipea_a_run memo holds; past
# it, misses are recomputed and not stored
A_MEMO_BYTES = 64 << 20


@dataclass(frozen=True)
class IpeaConfig:
    window: EvolutionWindow
    m: int = 20
    variant: str = "A"
    repetitions_per_bit: int = 1  # variant B; must be odd

    def __post_init__(self):
        if not 1 <= self.m <= MAX_BITS:
            raise ValueError(f"bits must be in 1..{MAX_BITS}, got {self.m}")
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")
        _require_odd_reps((self.repetitions_per_bit,))


def _require_odd_reps(counts) -> None:
    """ValueError unless every repetition count is odd and positive."""
    if any(r < 1 or r % 2 == 0 for r in counts):
        raise ValueError("repetitions_per_bit must be odd and positive")


@dataclass(frozen=True)
class PhaseBits:
    """Measured binary fraction, most significant bit first."""

    bits: tuple[int, ...]

    @classmethod
    def from_outcome(cls, outcome: int, m: int) -> "PhaseBits":
        return cls(tuple((outcome >> (m - 1 - i)) & 1 for i in range(m)))

    @property
    def m(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> float:
        return self.outcome / (1 << self.m)

    @property
    def outcome(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v


@dataclass(frozen=True)
class OutcomeRecord:
    bits: PhaseBits
    energy: float
    per_bit_stats: tuple[tuple[int, int], ...] | None = None  # (ones, reps), msb first
    overlap_trace: tuple[float, ...] | None = None


def _feedback(v, k: int, m: int):
    """omega_k in turns from the bits read at levels m..k+1 (int or int array).

    v holds them with level m's bit as bit 0, so omega_k = -v / 2^(m-k+1),
    minus the known tail of the phase shifted up by one bit.  The product
    is exact, and +0.0 at v = 0.
    """
    return -v * 2.0 ** (k - m - 1)


def bit_probability(phase: float, k: int, omega: float) -> float:
    """Born probability of reading 1 at iteration k for an eigenphase.

    The one-eigenphase case of _one_probability; omega in turns.
    """
    return float(_one_probability(np.ones(1), np.array([phase]), k, 2.0 * np.pi * omega))


# -- analytic outcome distribution ---------------------------------------


def _kernel_grid(d, m: int):
    """Squared Dirichlet kernel at a grid-unit distance d (array or scalar).

    d is (phase*2^m - outcome) and may be any real; the kernel has
    period 2^m in d and equals 1 at d = 0, and where d is so small that
    the denominator underflows.  d is reduced to [-2^(m-1), 2^(m-1)] and
    its distance to the nearest integer taken by subtracting rounded
    values, both exact, so a small |d| of either sign keeps its relative
    precision (a modulus would add 2^m to a small negative d).
    """
    size = float(1 << m)
    d = np.asarray(d, dtype=float)
    d = d - size * np.round(d / size)
    num = np.sin(np.pi * (d - np.round(d))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (size * np.sin(np.pi * d / size)) ** 2
        k = np.where(den == 0.0, 1.0, num / den)
    return k if k.ndim else float(k)


def pea_distribution(weights: list[tuple[float, float]], m: int) -> np.ndarray:
    """Full m-bit outcome distribution of phase estimation.

    weights holds (weight, phase-in-turns) pairs summing to 1; entry b of
    the returned array is the probability of reading the m-bit outcome b.
    Above DISTRIBUTION_BYTE_BUDGET it raises CapExceeded before allocating.
    """
    need = DISTRIBUTION_BYTES_PER_OUTCOME << m
    if need > DISTRIBUTION_BYTE_BUDGET:
        raise CapExceeded(
            f"an m={m} outcome distribution needs about {need / 2**30:.3g} GiB, "
            f"above the {DISTRIBUTION_BYTE_BUDGET / 2**30:.3g} GiB budget"
        )
    _require_normalized([w for w, _ in weights])
    size = 1 << m
    outcomes = np.arange(size, dtype=float)
    dist = np.zeros(size)
    for w, phase in weights:
        u = np.mod(phase, 1.0) * size
        dist += w * _kernel_grid(u - outcomes, m)
    return dist


def _round_down(phase: float, m: int) -> int:
    """The m-bit outcome a phase in turns rounds down to, modular at 1."""
    return int(math.floor(math.fmod(phase, 1.0) * (1 << m))) % (1 << m)


def rounding_masses(phase: float, m: int) -> tuple[int, float, float]:
    """(outcome rounded down, kernel mass there, kernel mass one up)."""
    u = math.fmod(phase, 1.0) * (1 << m)
    b = _round_down(phase, m)
    down = float(_kernel_grid(u - b, m))
    up = float(_kernel_grid(u - (b + 1), m))
    return b, down, up


def _require_normalized(weights) -> None:
    """WeightNormalization unless the weights sum to 1 within 1e-10."""
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-10:
        raise WeightNormalization(f"weights sum to {total!r}")


def _decompose(amplitudes: np.ndarray, spectra: list[SectorSpectrum],
               window: EvolutionWindow):
    """(weights, phases, energies) of a covered, normalised state.

    One entry per (block, column) pair in that order; phases are in turns,
    fmod'ed into (-1, 1) keeping the sign of window.phase_of.
    """
    weights = np.array(squared_moduli(covered_coefficients(amplitudes, spectra)))
    _require_normalized(weights)
    energies = np.concatenate([b.eigenvalues for b in spectra])
    return weights, np.fmod(window.phase_of(energies), 1.0), energies


def _pair_index(spectra: list[SectorSpectrum], target: tuple[int, int]) -> int:
    """Position of the (block, column) pair in _decompose's arrays; KeyError if absent."""
    block, column = target
    if not (0 <= block < len(spectra) and 0 <= column < spectra[block].dimension):
        raise KeyError(f"target {target} not found in spectra")
    return sum(b.dimension for b in spectra[:block]) + column


def state_decomposition(
    amplitudes: np.ndarray,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
):
    """[(weight, phase, energy, (block, column))] of a covered, normalised state."""
    weights, phases, energies = _decompose(amplitudes, spectra, window)
    pairs = [(b, i) for b, block in enumerate(spectra) for i in range(block.dimension)]
    return list(zip(weights.tolist(), phases.tolist(), energies.tolist(), pairs))


# -- variant A ------------------------------------------------------------


def ipea_a_run(
    guess: StateVector,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    rng: np.random.Generator,
    track_overlaps: bool = False,
    *,
    memo: dict | None = None,
) -> tuple[OutcomeRecord, StateVector]:
    """One sampled variant-A run; returns the record and the final
    (collapsed) system state.  A guess the spectra do not cover raises
    MissingSector before any gate.

    The system register holds only the spectra's determinants, block after
    block, zero-padded to a power of two; U leaves that span invariant.
    The readout rides on top of it, and each level after controlled-U
    applies its feedback rotation and Hadamard as one gate.

    The readout collapses after every level, so the joint register before
    level k's measurement depends only on k and the bits v read so far.
    memo maps (k, v) to (amplitudes, p0, p1): that register and the
    readout's two branch norms, which the node's first hit computes from
    the stored amplitudes.  A miss runs the level's three gates, stores a
    copy while the memo stays within A_MEMO_BYTES and calls measure_qubit.
    A hit draws its bit from the stored norms by measure_qubit's own rule
    and leaves the register alone; the collapsed level is written into it
    only before the next miss's gates, at every level when track_overlaps
    is set, and before the final state is formed.  Every level draws one
    uniform from rng either way, so a run reads the same bits and returns
    the same record and final state with or without a memo.  Share a memo
    only between runs of one (guess, spectra, cfg); None uses a fresh one.
    """
    covered_coefficients(guess.amplitudes, spectra)
    dets = np.concatenate([b.determinants for b in spectra])
    local, start = [], 0  # the blocks indexed by position in the register
    for b in spectra:
        local.append(SectorSpectrum(b.sector, b.eigenvalues, b.eigenvectors,
                                    np.arange(start, start + b.dimension)))
        start += b.dimension
    readout = (dets.size - 1).bit_length()

    joint = new_register(readout + 1)
    halves = joint.amplitudes.reshape(2, -1)  # system amplitudes by readout bit
    halves[0, :dets.size] = guess.amplitudes[dets]

    def reset(bit: int) -> None:  # the readout back to |0>
        if bit:
            halves[0] = halves[1]
            halves[1] = 0.0

    def settle() -> None:  # a pending hit's collapsed level into the register
        nonlocal pending
        if pending is not None:
            stored, bit, p = pending
            joint.amplitudes[...] = stored
            _collapse(joint, readout, bit, p)
            reset(bit)
            pending = None

    if memo is None:
        memo = {}
    v = 0  # bits read so far, level m's as bit 0
    pending = None  # a hit's (amplitudes, bit, branch norm) not yet in the register
    trace: list[float] = []
    for k in range(cfg.m, 0, -1):
        entry = memo.get((k, v))
        if entry is None:
            settle()
            apply_gate(joint, HADAMARD, readout)
            controlled_u_power_exact(joint, local, cfg.window, 1 << (k - 1))
            apply_gate(joint, HADAMARD @ rz_phase(_feedback(v, k, cfg.m)), readout)
            if (len(memo) + 1) * joint.amplitudes.nbytes <= A_MEMO_BYTES:
                memo[(k, v)] = (joint.amplitudes.copy(), None, None)
            bit, _ = measure_qubit(joint, readout, rng)
            reset(bit)
        else:
            stored, p0, p1 = entry
            if p0 is None:
                p0, p1 = _branch_norms(StateVector(joint.n_qubits, stored), readout)
                memo[(k, v)] = (stored, p0, p1)
            bit = _draw(p0, p1, rng)
            pending = (stored, bit, p1 if bit else p0)
            if track_overlaps:
                settle()
        v |= bit << (cfg.m - k)
        if track_overlaps:  # the largest |<u|psi>|^2 of the collapsed system
            trace.append(max(squared_moduli(eigen_coefficients(halves[0], local)[0])))
    settle()

    final = StateVector(guess.n_qubits, np.zeros(guess.amplitudes.size, dtype=np.complex128))
    final.amplitudes[dets] = halves[0, :dets.size]
    bits = PhaseBits.from_outcome(v, cfg.m)
    record = OutcomeRecord(
        bits=bits,
        energy=cfg.window.energy_of(bits.value),
        overlap_trace=tuple(trace) if track_overlaps else None,
    )
    return record, final


def ipea_a_success_probability(
    guess: StateVector,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    target: tuple[int, int],
) -> tuple[float, float]:
    """Analytic (p_down, p_up) of decoding the target eigenvalue.

    p_down is the probability of reading the target's phase truncated to
    m bits; p_up the probability of the next grid point (modular at 1).
    Both carry the target's squared overlap with the guess, which must be
    normalised (WeightNormalization), as a factor.
    """
    weights, phases, _ = _decompose(guess.amplitudes, spectra, cfg.window)
    t = _pair_index(spectra, target)
    _, down, up = rounding_masses(float(phases[t]), cfg.m)
    return float(weights[t]) * down, float(weights[t]) * up


# -- variant B ------------------------------------------------------------


def _majority_tails(counts, p) -> list[np.ndarray]:
    """P[Binomial(n, p) reaches a strict majority] for each odd n in counts,
    in counts' order; p may be an array.

    One pass over n = 2k+1 up to max(counts) of P_{2k+3} = P_{2k+1} + (p - q) c_k,
    c_k = C(2k+1, k) (pq)^(k+1), c_0 = pq, c_{k+1} = c_k 2(2k+3)/(k+2) pq.
    c_k <= 1/4, so no count overflows.  The tails are accurate in absolute
    terms (about 2e-15), so they can round just outside [0, 1]; they are clipped.
    """
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    pq, drift = p * q, p - q
    kept = dict.fromkeys(counts)
    tail, c = p.copy(), pq.copy()
    for k in range(max(counts) // 2 + 1):
        if 2 * k + 1 in kept:
            kept[2 * k + 1] = np.clip(tail, 0.0, 1.0)
        tail += drift * c
        c *= pq
        c *= 2.0 * (2 * k + 3) / (k + 2)
    return [kept[n] for n in counts]


def _majority_tail(reps: int, p):
    """P[Binomial(reps, p) reaches a strict majority], reps odd; p may be an array."""
    tail = _majority_tails((reps,), p)[0]
    return tail if tail.ndim else float(tail)


def _one_probability(weights: np.ndarray, phases: np.ndarray, k: int, angle):
    """Born probability of reading 1 at iteration k from an eigenphase mixture.

    angle = 2 pi omega is the feedback rotation in radians (scalar or
    array), omega from _feedback.  With S_k = sum_j w_j exp(2 pi i
    frac(2^(k-1) phi_j)), the eigenphase mixture
    sum_j w_j sin^2(pi (2^(k-1) phi_j + omega)) equals
    (sum_j w_j - Re(exp(2 pi i omega) S_k)) / 2.
    """
    s_k = np.dot(weights, np.exp(2j * np.pi * np.mod(2.0 ** (k - 1) * phases, 1.0)))
    re = np.cos(angle) * s_k.real - np.sin(angle) * s_k.imag
    return np.clip(0.5 * (weights.sum() - re), 0.0, 1.0)


def _vote_runs(weights: np.ndarray, phases: np.ndarray, cfg: IpeaConfig, n_runs: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Voted outcomes of n_runs variant-B runs and the ones-count of every bit.

    Because the guess is rebuilt for every repetition, each measurement
    is an independent Bernoulli draw from the eigenphase mixture, so a
    bit's ones-count is one binomial draw per run and whole runs are
    sampled in lockstep.  Returns (outcomes, ones); ones[i] holds the
    counts of bit i, most significant first.  The weights must sum to 1.
    """
    _require_normalized(weights)
    reps = cfg.repetitions_per_bit
    m = cfg.m
    v = np.zeros(n_runs, dtype=np.int64)
    ones = np.empty((m, n_runs), dtype=np.int64)
    for k in range(m, 0, -1):
        angle = 2.0 * np.pi * _feedback(v, k, m)
        ones[k - 1] = rng.binomial(reps, _one_probability(weights, phases, k, angle))
        v += (ones[k - 1] > reps // 2).astype(np.int64) << (m - k)
    return v, ones


def ipea_b_run(
    guess: StateVector,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    rng: np.random.Generator,
) -> OutcomeRecord:
    """Sampled variant-B run: fresh guess per repetition, majority vote.

    Sampled from the guess's eigen-mixture by _vote_runs.
    """
    weights, phases, _ = _decompose(guess.amplitudes, spectra, cfg.window)
    v, ones = _vote_runs(weights, phases, cfg, 1, rng)
    bits = PhaseBits.from_outcome(int(v[0]), cfg.m)
    return OutcomeRecord(
        bits=bits,
        energy=cfg.window.energy_of(bits.value),
        per_bit_stats=tuple((int(n), cfg.repetitions_per_bit) for n in ones[:, 0]),
    )


def sample_b_outcomes(
    weights: list[tuple[float, float]],
    cfg: IpeaConfig,
    n_runs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Voted outcomes of n_runs variant-B runs, sampled without statevectors.

    weights holds (weight, phase) pairs of the guess decomposition.
    """
    w, phases = np.array(weights, dtype=float).T
    return _vote_runs(w, phases, cfg, n_runs, rng)[0]


@dataclass(frozen=True)
class BSuccessDetail:
    """ipea_b_success_probability's detail: the two target paths are exact,
    so pruned_mass is 0.0 and n_histories (paths evaluated) is 2."""
    probability: float | tuple[float, ...]
    pruned_mass: float
    n_histories: int


def _level_probabilities(weights: np.ndarray, phases: np.ndarray, m: int,
                         outcomes: np.ndarray) -> np.ndarray:
    """(m, len(outcomes)) probabilities of reading 1 along each outcome's path:
    row i is level k = m - i, after the prefix outcome & (2^i - 1) was voted."""
    return np.array([
        _one_probability(weights, phases, m - i,
                         2.0 * np.pi * _feedback(outcomes & ((1 << i) - 1), m - i, m))
        for i in range(m)])


def _path_product(tail: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Each outcome's path mass from the majority tails of _level_probabilities'
    array at one repetition count: an outcome has one history, so its mass is
    the product of its bits' majority probabilities."""
    factor = np.where((outcomes >> np.arange(tail.shape[0])[:, None]) & 1, tail, 1.0 - tail)
    return np.multiply.reduce(factor, axis=0)


def ipea_b_success_probability(
    guess: StateVector,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    target: tuple[int, int],
    return_detail: bool = False,
    repetition_counts=None,
):
    """Exact variant-B success probability of a normalised guess.

    Success means voting the target phase rounded down or up (modular):
    the two outcomes' path masses (_path_product), summed and clipped at 1.
    Given odd repetition_counts, returns one probability per count, in
    order, from one decomposition and one set of level probabilities;
    omitted, the float for cfg.repetitions_per_bit.
    """
    single = repetition_counts is None
    counts = (cfg.repetitions_per_bit,) if single else tuple(repetition_counts)
    if not counts:
        raise ValueError("repetition_counts must not be empty")
    _require_odd_reps(counts)
    weights, phases, _ = _decompose(guess.amplitudes, spectra, cfg.window)
    b_down = _round_down(float(phases[_pair_index(spectra, target)]), cfg.m)
    outcomes = np.array([b_down, (b_down + 1) % (1 << cfg.m)], dtype=np.int64)
    one = _level_probabilities(weights, phases, cfg.m, outcomes)
    probs = tuple(min(float(mass[0] + mass[1]), 1.0)
                  for mass in (_path_product(t, outcomes)
                               for t in _majority_tails(counts, one)))
    result = probs[0] if single else probs
    if return_detail:
        return result, BSuccessDetail(result, 0.0, 2)
    return result
