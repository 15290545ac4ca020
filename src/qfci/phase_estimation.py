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

from .errors import CapExceeded, MissingSector, WeightNormalization
from .guess import GuessState
from .hamiltonian import SECTOR_BYTE_BUDGET, SectorSpectrum, eigen_weights
from .propagator import EvolutionWindow, controlled_u_power_exact
from .statevector import (
    HADAMARD,
    StateVector,
    apply_gate,
    from_amplitudes,
    measure_qubit,
    new_register,
    rz_phase,
)

COVERAGE_TOL = 1e-12
# A float64 phase carries 52 fractional bits; more cannot be resolved.
MAX_BITS = 52
# Peak bytes per outcome of pea_distribution, whose temporaries measured
# 7.1 float64 arrays of 2^m, and the most it may take
DISTRIBUTION_BYTES_PER_OUTCOME = 8 * 8
DISTRIBUTION_BYTE_BUDGET = SECTOR_BYTE_BUDGET


@dataclass(frozen=True)
class IpeaConfig:
    window: EvolutionWindow
    m: int = 20
    variant: str = "A"
    repetitions_per_bit: int = 1  # variant B; must be odd
    whole_run_repeats: int = 1    # variant A amplification
    rng_seed: int | None = None

    def __post_init__(self):
        if not 1 <= self.m <= MAX_BITS:
            raise ValueError(f"bits must be in 1..{MAX_BITS}, got {self.m}")
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")
        if self.repetitions_per_bit < 1 or self.repetitions_per_bit % 2 == 0:
            raise ValueError("repetitions_per_bit must be odd and positive")
        if self.whole_run_repeats < 1:
            raise ValueError("whole_run_repeats must be positive")


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
    p_down: float
    p_up: float
    per_bit_stats: tuple[tuple[int, int], ...] | None = None  # (ones, reps), msb first
    overlap_trace: tuple[float, ...] | None = None

    @property
    def p_tot(self) -> float:
        return self.p_down + self.p_up


def feedback_angle(later_bits) -> float:
    """omega_k in turns from already-measured bits phi_{k+1}..phi_m.

    later_bits is most-significant-first; the angle is
    -sum_j later_bits[j] / 2**(j+2), i.e. minus the known tail of the
    phase shifted up by one bit.
    """
    omega = 0.0
    for j, bit in enumerate(later_bits):
        if bit:
            omega -= 0.5 ** (j + 2)
    return omega


def bit_probability(phase: float, k: int, omega: float) -> float:
    """Born probability of reading 1 at iteration k for an eigenphase."""
    arg = math.fmod(2.0 ** (k - 1) * phase + omega, 1.0)
    return math.sin(math.pi * arg) ** 2


# -- analytic outcome distribution ---------------------------------------


def _kernel_grid(d, m: int):
    """Squared Dirichlet kernel at a grid-unit distance d (array or scalar).

    d is (phase*2^m - outcome) and may be any real; the kernel has
    period 2^m in d and equals 1 at d = 0.
    """
    size = float(1 << m)
    d = np.mod(np.asarray(d, dtype=float), size)
    num = np.sin(np.pi * np.mod(d, 1.0)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        den = (size * np.sin(np.pi * d / size)) ** 2
        k = np.where(d == 0.0, 1.0, num / den)
    return k if k.ndim else float(k)


def pea_kernel(delta_turns, m: int):
    """Outcome kernel K_m as a function of phase distance in turns."""
    return _kernel_grid(np.asarray(delta_turns, dtype=float) * (1 << m), m)


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
    total = sum(w for w, _ in weights)
    if abs(total - 1.0) > 1e-10:
        raise WeightNormalization(f"weights sum to {total!r}")
    size = 1 << m
    outcomes = np.arange(size, dtype=float)
    dist = np.zeros(size)
    for w, phase in weights:
        u = np.mod(phase, 1.0) * size
        dist += w * _kernel_grid(u - outcomes, m)
    return dist


def rounding_masses(phase: float, m: int) -> tuple[int, float, float]:
    """(outcome rounded down, kernel mass there, kernel mass one up)."""
    size = 1 << m
    u = math.fmod(phase, 1.0) * size
    b = int(math.floor(u)) % size
    down = float(_kernel_grid(u - b, m))
    up = float(_kernel_grid(u - (b + 1), m))
    return b, down, up


def _as_statevector(guess, cap: int = 24) -> StateVector:
    if isinstance(guess, GuessState):
        return guess.to_statevector(cap)
    if isinstance(guess, StateVector):
        return guess
    return from_amplitudes(guess, cap)


def state_decomposition(
    amplitudes: np.ndarray,
    spectra: list[SectorSpectrum],
    window: EvolutionWindow,
):
    """[(weight, phase, energy, (block, column))] for covered eigenpairs."""
    weights, covered = eigen_weights(amplitudes, spectra)
    total = float(np.sum(np.abs(amplitudes) ** 2))
    if total - covered > COVERAGE_TOL:
        raise MissingSector(
            f"{total - covered:.3e} of guess norm outside supplied spectra"
        )
    out = []
    for (b, i), w in sorted(weights.items()):
        energy = float(spectra[b].eigenvalues[i])
        out.append((w, math.fmod(window.phase_of(energy), 1.0), energy, (b, i)))
    return out


# -- variant A ------------------------------------------------------------


def _reset_readout(joint: StateVector, last_bit: int) -> None:
    half = joint.amplitudes.size // 2
    if last_bit:
        joint.amplitudes[:half] = joint.amplitudes[half:]
        joint.amplitudes[half:] = 0.0


def _max_eigen_overlap(system: np.ndarray, spectra) -> float:
    best = 0.0
    for block in spectra:
        coeffs = block.eigenvectors.conj().T @ system[block.determinants]
        if coeffs.size:
            best = max(best, float(np.max(np.abs(coeffs) ** 2)))
    return best


def ipea_a_run(
    guess,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    rng: np.random.Generator | None = None,
    track_overlaps: bool = False,
) -> tuple[OutcomeRecord, StateVector]:
    """One sampled variant-A run; returns the record and the final
    (collapsed) system state.

    The record's p_down/p_up are the analytic masses of the eigenstate
    the register collapsed onto, weighted by that eigenstate's share of
    the *initial* guess: the chance a fresh run decodes this eigenvalue
    rounded down/up.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    system = _as_statevector(guess)
    n_sys = system.n_qubits
    readout = n_sys  # readout rides on top of the system bits

    decomp = state_decomposition(system.amplitudes, spectra, cfg.window)

    joint = new_register(n_sys + 1)
    joint.amplitudes[: 1 << n_sys] = system.amplitudes
    joint.amplitudes[1 << n_sys:] = 0.0

    later: list[int] = []
    trace: list[float] = []
    last_bit = 0
    for k in range(cfg.m, 0, -1):
        _reset_readout(joint, last_bit)
        apply_gate(joint, HADAMARD, readout)
        controlled_u_power_exact(joint, spectra, cfg.window, 1 << (k - 1), readout)
        apply_gate(joint, rz_phase(feedback_angle(later)), readout)
        apply_gate(joint, HADAMARD, readout)
        last_bit, _ = measure_qubit(joint, readout, rng)
        later.insert(0, last_bit)
        if track_overlaps:
            trace.append(_max_eigen_overlap(_system_branch(joint, last_bit), spectra))

    final = StateVector(n_sys, _system_branch(joint, last_bit).copy())
    bits = PhaseBits(tuple(later))
    energy = decode_energy(bits, cfg.window)

    weights, _ = eigen_weights(final.amplitudes, spectra)
    block, col = max(weights, key=weights.get)
    w0 = next((w for w, _, _, ref in decomp if ref == (block, col)), 0.0)
    _, down, up = rounding_masses(
        cfg.window.phase_of(float(spectra[block].eigenvalues[col])), cfg.m
    )
    record = OutcomeRecord(
        bits=bits,
        energy=energy,
        p_down=w0 * down,
        p_up=w0 * up,
        overlap_trace=tuple(trace) if track_overlaps else None,
    )
    return record, final


def _system_branch(joint: StateVector, bit: int) -> np.ndarray:
    half = joint.amplitudes.size // 2
    return joint.amplitudes[half:] if bit else joint.amplitudes[:half]


def ipea_a_repeat(
    guess,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    rng: np.random.Generator | None = None,
) -> list[OutcomeRecord]:
    """whole_run_repeats independent variant-A runs (fresh guess each)."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    return [
        ipea_a_run(guess, spectra, cfg, rng)[0]
        for _ in range(cfg.whole_run_repeats)
    ]


def ipea_a_success_probability(
    guess,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    target: tuple[int, int],
) -> tuple[float, float]:
    """Analytic (p_down, p_up) of decoding the target eigenvalue.

    p_down is the probability of reading the target's phase truncated to
    m bits; p_up the probability of the next grid point (modular at 1).
    Both carry the target's squared overlap with the guess as a factor.
    """
    system = _as_statevector(guess)
    decomp = state_decomposition(system.amplitudes, spectra, cfg.window)
    for w, phase, _, ref in decomp:
        if ref == target:
            _, down, up = rounding_masses(phase, cfg.m)
            return w * down, w * up
    raise KeyError(f"target {target} not found in spectra")


# -- variant B ------------------------------------------------------------


def _majority_tail(reps: int, p):
    """P[Binomial(reps, p) reaches a strict majority], reps odd; p may be an array.

    Homogeneous Horner in (p, q) over j = reps down to need = reps//2 + 1:
    sum_j C(reps, j) p^j q^(reps-j) = p^need * sum_j C(reps, j) p^(j-need) q^(reps-j).
    """
    need = reps // 2 + 1
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    acc = np.ones_like(p)
    q_pow = np.ones_like(p)
    for j in range(reps - 1, need - 1, -1):
        acc *= p
        q_pow *= q
        acc += float(math.comb(reps, j)) * q_pow
    acc *= p**need
    return acc if acc.ndim else float(acc)


def _voted_one_probability(
    weights: np.ndarray, phases: np.ndarray, k: int, m: int, v: np.ndarray
) -> np.ndarray:
    """Born probability of reading 1 at iteration k for each voted history v.

    v holds the bits voted at iterations m..k+1 (bit m-j is phi_j), so the
    feedback angle is omega = -v / 2^(m-k+1) turns.  With
    S_k = sum_j w_j exp(2 pi i frac(2^(k-1) phi_j)), the eigenphase mixture
    sum_j w_j sin^2(pi (2^(k-1) phi_j + omega)) equals
    (sum_j w_j - Re(exp(2 pi i omega) S_k)) / 2.
    """
    s_k = np.dot(weights, np.exp(2j * np.pi * np.mod(2.0 ** (k - 1) * phases, 1.0)))
    angle = v * (-2.0 * np.pi * 2.0 ** (k - m - 1))
    re = np.cos(angle) * s_k.real - np.sin(angle) * s_k.imag
    return np.clip(0.5 * (weights.sum() - re), 0.0, 1.0)


def ipea_b_run(
    guess_builder,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    rng: np.random.Generator | None = None,
) -> OutcomeRecord:
    """Sampled variant-B run: fresh guess per repetition, majority vote.

    guess_builder is invoked exactly once per repetition per bit.  The
    record's p_down/p_up describe the eigenpair nearest the decoded
    energy, weighted by its share of the (first-built) guess.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    reps = cfg.repetitions_per_bit
    later: list[int] = []
    stats: list[tuple[int, int]] = []
    decomp = None

    for k in range(cfg.m, 0, -1):
        omega = feedback_angle(later)
        ones = 0
        for _ in range(reps):
            system = _as_statevector(guess_builder())
            if decomp is None:
                decomp = state_decomposition(system.amplitudes, spectra, cfg.window)
            n_sys = system.n_qubits
            joint = new_register(n_sys + 1)
            joint.amplitudes[: 1 << n_sys] = system.amplitudes
            joint.amplitudes[1 << n_sys:] = 0.0
            apply_gate(joint, HADAMARD, n_sys)
            controlled_u_power_exact(joint, spectra, cfg.window, 1 << (k - 1), n_sys)
            apply_gate(joint, rz_phase(omega), n_sys)
            apply_gate(joint, HADAMARD, n_sys)
            bit, _ = measure_qubit(joint, n_sys, rng)
            ones += bit
        later.insert(0, 1 if ones > reps // 2 else 0)
        stats.insert(0, (ones, reps))

    bits = PhaseBits(tuple(later))
    energy = decode_energy(bits, cfg.window)
    w0, phase0 = min(
        ((w, ph) for w, ph, e, _ in decomp),
        key=lambda t: abs(
            (t[1] - bits.value + 0.5) % 1.0 - 0.5
        ),
    )
    _, down, up = rounding_masses(phase0, cfg.m)
    return OutcomeRecord(
        bits=bits,
        energy=energy,
        p_down=w0 * down,
        p_up=w0 * up,
        per_bit_stats=tuple(stats),
    )


def sample_b_outcomes(
    weights: list[tuple[float, float]],
    cfg: IpeaConfig,
    n_runs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized Monte Carlo of the variant-B voted outcome.

    Because the register is rebuilt for every repetition, each
    measurement is an independent Bernoulli draw from the eigenstate
    mixture, so whole runs can be sampled in lockstep from binomial
    draws without touching statevectors.  weights holds (weight, phase)
    pairs of the guess decomposition.
    """
    total = sum(w for w, _ in weights)
    if abs(total - 1.0) > 1e-10:
        raise WeightNormalization(f"weights sum to {total!r}")
    w, phases = np.array(weights, dtype=float).T
    reps = cfg.repetitions_per_bit
    m = cfg.m
    v = np.zeros(n_runs, dtype=np.int64)
    for k in range(m, 0, -1):
        ones = rng.binomial(reps, _voted_one_probability(w, phases, k, m, v))
        votes = (ones > reps // 2).astype(np.int64)
        v += votes << (m - k)
    return v


@dataclass(frozen=True)
class BSuccessDetail:
    probability: float
    pruned_mass: float
    n_histories: int


def ipea_b_success_probability(
    guess,
    spectra: list[SectorSpectrum],
    cfg: IpeaConfig,
    target: tuple[int, int],
    prune_tol: float = 1e-12,
    return_detail: bool = False,
):
    """Exact variant-B success probability by history recursion.

    Walks the tree of voted-bit histories level by level, propagating
    exact binomial majority probabilities; branches below prune_tol of
    probability mass are dropped (the discarded mass bounds the
    truncation error and is available via return_detail).  Success means
    the final outcome hits the target phase rounded down or up (modular).

    The frontier is a pair of flat arrays (voted bits so far, mass).
    Each level sets a new bit, so children never merge and a level is
    one filter over the concatenated 1- and 0-children.
    """
    system = _as_statevector(guess)
    decomp = state_decomposition(system.amplitudes, spectra, cfg.window)
    target_row = next((row for row in decomp if row[3] == target), None)
    if target_row is None:
        raise KeyError(f"target {target} not found in spectra")
    b_down, _, _ = rounding_masses(target_row[1], cfg.m)
    b_up = (b_down + 1) % (1 << cfg.m)

    weights, phases = np.array([row[:2] for row in decomp], dtype=float).T
    reps = cfg.repetitions_per_bit
    m = cfg.m
    v = np.zeros(1, dtype=np.int64)
    mass = np.ones(1)
    pruned = 0.0
    peak = 1
    for k in range(m, 0, -1):
        q1 = _majority_tail(reps, _voted_one_probability(weights, phases, k, m, v))
        q = np.concatenate((q1, 1.0 - q1))
        share = np.concatenate((mass, mass)) * q
        live = q > 0.0
        keep = live & (share >= prune_tol)
        pruned += float(share[live & ~keep].sum())
        v = np.concatenate((v + (1 << (m - k)), v))[keep]
        mass = share[keep]
        peak = max(peak, v.size)

    prob = float(mass[v == b_down].sum() + mass[v == b_up].sum())
    if return_detail:
        return prob, BSuccessDetail(prob, pruned, peak)
    return prob


def decode_energy(bits: PhaseBits, window: EvolutionWindow) -> float:
    """E = E_max - phi_tilde * (E_max - E_min)."""
    return window.energy_of(bits.value)
