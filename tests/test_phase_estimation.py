import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfci.phase_estimation as phase_estimation
import qfci.statevector as statevector
from qfci.errors import (
    CapExceeded,
    DimensionMismatch,
    MissingSector,
    WeightNormalization,
)
from qfci.guess import hf_determinant, load_amplitude_guess, random_sector_state
from qfci.hamiltonian import (
    FermionTerm,
    SectorSpectrum,
    build_second_quantized,
    exact_eigensolve,
)
from qfci.integrals import parse_fcidump, to_spin_orbitals
from qfci.phase_estimation import (
    IpeaConfig,
    PhaseBits,
    _feedback,
    _majority_tail,
    bit_probability,
    ipea_a_run,
    ipea_a_success_probability,
    ipea_b_run,
    ipea_b_success_probability,
    pea_distribution,
    rounding_masses,
    sample_b_outcomes,
    state_decomposition,
)
from qfci.propagator import EvolutionWindow, controlled_u_power_exact, u_power_exact
from qfci.statevector import HADAMARD, StateVector, apply_gate, new_register, rz_phase

from tests.conftest import FIXTURES
from tests.oracles import b_success_by_dict, ipea_a_run_full_register, ipea_b_run_gate_level

EIGHT_OVER_PI_SQ = 8.0 / np.pi**2


def diagonal_system(energy: float, e_max: float, e_min: float):
    """One spatial orbital; the alpha-occupied state carries `energy`."""
    terms = [FermionTerm(energy, ((0, True), (0, False)))]
    spectra = [
        exact_eigensolve(terms, 2, s) for s in [(0, 0), (1, 0), (0, 1), (1, 1)]
    ]
    sv = StateVector(2, np.array([0, 1, 0, 0], complex))  # alpha occupied
    window = EvolutionWindow(e_max=e_max, e_min=e_min)
    return sv, spectra, window


class TestConfig:
    def test_validation(self, window):
        with pytest.raises(ValueError):
            IpeaConfig(window=window, m=0)
        assert IpeaConfig(window=window, m=52).m == 52
        with pytest.raises(ValueError, match="1..52"):
            IpeaConfig(window=window, m=53)
        with pytest.raises(ValueError):
            IpeaConfig(window=window, variant="C")
        with pytest.raises(ValueError):
            IpeaConfig(window=window, repetitions_per_bit=4)

    def test_defaults(self, window):
        cfg = IpeaConfig(window=window)
        assert cfg.m == 20 and cfg.variant == "A"


class TestPhaseBits:
    def test_value_and_outcome(self):
        bits = PhaseBits((1, 0, 1))
        assert bits.outcome == 0b101
        assert bits.value == 5 / 8

    def test_round_trip(self):
        for outcome in range(16):
            assert PhaseBits.from_outcome(outcome, 4).outcome == outcome

    def test_value_in_unit_interval(self):
        assert 0.0 <= PhaseBits((1,) * 12).value < 1.0


    @given(st.integers(1, 52).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))))
    def test_outcome_round_trip(self, case):
        m, outcome = case
        bits = PhaseBits.from_outcome(outcome, m)
        assert bits.m == m and len(bits.bits) == m
        assert set(bits.bits) <= {0, 1}
        assert bits.outcome == outcome
        assert PhaseBits.from_outcome(bits.outcome, m) == bits
        assert bits.value == outcome / 2**m
        window = EvolutionWindow(e_max=0.5, e_min=-1.5)
        energy = window.energy_of(bits.value)
        assert window.e_min < energy <= window.e_max
        assert window.phase_of(energy) == pytest.approx(bits.value, abs=1e-15)


class TestFeedbackAngle:
    @given(st.integers(1, 52).flatmap(lambda m: st.integers(1, m).flatmap(
        lambda k: st.tuples(st.just(m), st.just(k), st.integers(0, (1 << (m - k)) - 1)))))
    def test_exact_binary_representation(self, case):
        # omega_k is minus the dyadic sum of the bits read at levels m..k+1,
        # level k+1's bit worth a quarter turn; it stays exact in binary
        # floating point, so feedback rotations carry no rounding noise
        m, k, v = case
        dyadic = 0.0
        for level in range(k + 1, m + 1):
            if v >> (m - level) & 1:
                dyadic -= 0.5 ** (level - k + 1)
        omega = _feedback(v, k, m)
        assert omega == dyadic
        if v == 0:
            assert omega == 0.0 and np.copysign(1.0, omega) == 1.0


class TestBitProbability:
    def test_exact_half_phase(self):
        assert bit_probability(0.5, 1, 0.0) == pytest.approx(1.0)

    def test_zero_phase(self):
        for k in (1, 3, 7):
            assert bit_probability(0.0, k, 0.0) == 0.0

    def test_third_phase(self):
        assert bit_probability(1.0 / 3.0, 2, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_matches_two_qubit_circuit(self):
        # readout on qubit 2 above diagonal_system's register, whose
        # alpha-occupied eigenstate has phase phi in a (0, 1] window
        for phi, k, omega in [(1 / 3, 2, 0.0), (0.37, 3, -0.125), (0.81, 1, 0.2)]:
            sv, spectra, window = diagonal_system(1.0 - phi, 1.0, 0.0)
            joint = new_register(3)
            joint.amplitudes[:4] = sv.amplitudes
            apply_gate(joint, HADAMARD, 2)
            controlled_u_power_exact(joint, spectra, window, 2 ** (k - 1))
            apply_gate(joint, rz_phase(omega), 2)
            apply_gate(joint, HADAMARD, 2)
            p_one = np.vdot(joint.amplitudes[4:], joint.amplitudes[4:]).real
            assert p_one == pytest.approx(bit_probability(phi, k, omega), abs=1e-12)


class TestPeaDistribution:
    def test_exact_phase_concentrates(self):
        dist = pea_distribution([(1.0, 3 / 16)], 4)
        assert dist[3] == pytest.approx(1.0, abs=1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_worst_case_monotone_to_limit(self):
        prev = 1.0
        for m in (4, 8, 12, 16, 20):
            phi = 1.0 / (1 << (m + 1))  # exactly halfway between grid points
            b, down, up = rounding_masses(phi, m)
            p_tot = down + up
            assert p_tot >= EIGHT_OVER_PI_SQ - 1e-6
            assert p_tot < prev
            prev = p_tot

    def test_two_eigenstates_split_linearly(self):
        dist = pea_distribution([(0.6, 1 / 8), (0.4, 5 / 8)], 3)
        assert dist[1] == pytest.approx(0.6, abs=1e-12)
        assert dist[5] == pytest.approx(0.4, abs=1e-12)

    def test_random_weights_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.random(4)
            w /= w.sum()
            phis = rng.random(4)
            dist = pea_distribution(list(zip(w, phis)), 6)
            assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_weight_normalization_checked(self):
        with pytest.raises(WeightNormalization):
            pea_distribution([(0.5, 0.1)], 4)

    def test_over_budget_rejected_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(phase_estimation.np, "arange", refuse)
        monkeypatch.setattr(phase_estimation.np, "zeros", refuse)
        for m in (26, 52):
            with pytest.raises(CapExceeded, match="GiB"):
                pea_distribution([(1.0, 0.25)], m)

    def test_kernel_endpoints(self):
        assert rounding_masses(3 / 2**8, 8) == (3, pytest.approx(1.0), pytest.approx(0.0))
        # half-grid distance gives the 4/pi^2 shoulder on both sides as m grows
        _, down, up = rounding_masses(0.5 / 2**20, 20)
        assert down == pytest.approx(4 / np.pi**2, rel=1e-5)
        assert up == pytest.approx(4 / np.pi**2, rel=1e-5)

    @pytest.mark.parametrize("phase", [1e-300, 1e-310])
    def test_underflowing_distance_gives_full_mass(self, phase):
        # a window about 1e308 wide puts a phase this close to the grid;
        # the kernel's numerator and denominator both underflowed to 0/0 = nan
        assert rounding_masses(phase, 6) == (0, 1.0, 0.0)

    def test_wraparound_mass(self):
        # phase just below 1 rounds down to the top outcome and up to 0
        m = 6
        phi = 1.0 - 0.25 / (1 << m)
        b, down, up = rounding_masses(phi, m)
        assert b == (1 << m) - 1
        dist = pea_distribution([(1.0, phi)], m)
        assert dist[b] == pytest.approx(down, abs=1e-12)
        assert dist[0] == pytest.approx(up, abs=1e-12)
        assert up > 0.1


class TestIpeaVariantA:
    def test_exact_eigenstate_deterministic(self):
        sv, spectra, window = diagonal_system(0.25, 1.0, 0.0)
        # phi = (1 - 0.25)/1 = 0.75 = 0.11 binary
        cfg = IpeaConfig(window=window, m=2)
        record, final = ipea_a_run(sv, spectra, cfg, np.random.default_rng(0))
        assert record.bits.bits == (1, 1)
        assert record.energy == pytest.approx(0.25)
        # final state equals the guess up to a global phase
        ov = np.vdot(final.amplitudes, sv.amplitudes)
        assert abs(ov) == pytest.approx(1.0, abs=1e-12)

    def test_excited_eigenvector_of_a_later_block_stays_itself(self, h2_all_spectra, window):
        block = [s.sector for s in h2_all_spectra].index((1, 1))
        sv = StateVector(4, h2_all_spectra[block].embed(2, 4))
        _, final = ipea_a_run(sv, h2_all_spectra, IpeaConfig(window=window, m=8),
                              np.random.default_rng(0))
        assert abs(np.vdot(final.amplitudes, sv.amplitudes)) == pytest.approx(1.0)

    def test_sampled_frequency_matches_analytic(
        self, h2_hf_state, h2_spectrum_11, window
    ):
        m = 6  # small m keeps 1e3 runs cheap while exercising feedback
        cfg = IpeaConfig(window=window, m=m)
        p_down, p_up = ipea_a_success_probability(
            h2_hf_state, [h2_spectrum_11], cfg, (0, 0)
        )
        b, _, _ = rounding_masses(
            window.phase_of(h2_spectrum_11.eigenvalues[0]), m
        )
        hits = 0
        runs = 1000
        rng = np.random.default_rng(314)
        for _ in range(runs):
            rec, _ = ipea_a_run(h2_hf_state, [h2_spectrum_11], cfg, rng)
            if rec.bits.outcome in (b, (b + 1) % (1 << m)):
                hits += 1
        p = p_down + p_up
        sigma = np.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 3 * sigma + 1e-9

    def test_random_sector_guess_decodes_an_eigenvalue(
        self, h2_terms, h2_spectrum_11, window
    ):
        from qfci.guess import random_sector_state

        rng = np.random.default_rng(2718)
        cfg = IpeaConfig(window=window, m=20)
        grid = window.width * 2.0**-20
        eigs = np.asarray(h2_spectrum_11.eigenvalues)
        # outcomes off the two rounding neighbours occur with probability
        # 1 - p_tot; the fixed seed keeps this spot check deterministic
        within_one = 0
        for _ in range(20):
            guess = random_sector_state(2, (1, 1), rng)
            rec, _ = ipea_a_run(guess.to_statevector(), [h2_spectrum_11], cfg, rng)
            dist = np.min(np.abs(eigs - rec.energy))
            assert dist <= 8 * grid
            within_one += dist <= grid
        assert within_one >= 15

    def test_collapse_and_monotone_overlap(self, h2_hf_state, h2_spectrum_11, window):
        rng = np.random.default_rng(99)
        cfg = IpeaConfig(window=window, m=20)
        rec, final = ipea_a_run(
            h2_hf_state, [h2_spectrum_11], cfg, rng, track_overlaps=True
        )
        trace = rec.overlap_trace
        assert trace[-1] >= 1 - 1e-9
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_overlap_trace_entries_are_eigen_weights(self, monkeypatch, h2_spectrum_11,
                                                     window):
        # each entry is the largest state_decomposition weight of the branch the
        # register collapsed to, bit for bit: squaring numpy's array abs
        # differs in the last bit for about a third of the coefficients.  The
        # register holds the block's determinants by position, so the branch
        # is read against the block re-indexed onto positions 0..dim-1
        branches = []
        by_position = SectorSpectrum(h2_spectrum_11.sector, h2_spectrum_11.eigenvalues,
                                     h2_spectrum_11.eigenvectors,
                                     np.arange(h2_spectrum_11.dimension))
        measure = phase_estimation.measure_qubit

        def recording(joint, qubit, rng):
            bit, state = measure(joint, qubit, rng)
            branches.append(joint.amplitudes.reshape(2, -1)[bit].copy())
            return bit, state

        monkeypatch.setattr(phase_estimation, "measure_qubit", recording)
        guess = random_sector_state(2, (1, 1), np.random.default_rng(5)).to_statevector()
        cfg = IpeaConfig(window=window, m=12)
        rec, _ = ipea_a_run(guess, [h2_spectrum_11], cfg, np.random.default_rng(5),
                            track_overlaps=True)
        assert rec.overlap_trace == tuple(
            max(w for w, *_ in state_decomposition(branch, [by_position], window))
            for branch in branches[:cfg.m]
        )

    def test_missing_sector_guess_rejected(self, h2_spectrum_11, window):
        sv = StateVector(4, np.zeros(16, complex))
        sv.amplitudes[0b0001] = 1.0
        with pytest.raises(MissingSector):
            ipea_a_run(sv, [h2_spectrum_11], IpeaConfig(window=window, m=2),
                       np.random.default_rng(0))


@pytest.fixture(scope="module")
def h4_system():
    mol = parse_fcidump(FIXTURES / "h4_r1.8.fcidump")
    soi = to_spin_orbitals(mol)
    terms = build_second_quantized(soi)
    spectra = {s: exact_eigensolve(terms, soi.n_so, s) for s in [(2, 2), (3, 1)]}
    return mol.n_orb, spectra, EvolutionWindow(e_max=5.0, e_min=-4.0)


def _system(name, h2_spectrum_11, window, h4_system):
    if name == "h2":
        return 2, {(1, 1): h2_spectrum_11}, window
    return h4_system


class TestVariantAFullRegisterOracle:
    """The sector-sized register against the full n + 1 qubit register."""

    def _common_random_numbers(self, guess, spectra, cfg, seed, runs=300):
        rng, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(runs):
            rec, final = ipea_a_run(guess, spectra, cfg, rng)
            outcome, final_full = ipea_a_run_full_register(guess, spectra, cfg, rng_full)
            assert rec.bits.outcome == outcome
            np.testing.assert_allclose(final.amplitudes, final_full.amplitudes,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [10, 20])
    @pytest.mark.parametrize("kind", ["hf", "random"])
    @pytest.mark.parametrize("name", ["h2", "h4"])
    def test_same_outcomes_and_final_states(self, name, kind, m, h2_spectrum_11, window,
                                            h4_system):
        n_orb, spectra, win = _system(name, h2_spectrum_11, window, h4_system)
        sector = (n_orb // 2, n_orb // 2)
        if kind == "hf":
            guess = hf_determinant(n_orb, *sector)
        else:
            guess = random_sector_state(n_orb, sector, np.random.default_rng(m))
        self._common_random_numbers(guess.to_statevector(), [spectra[sector]],
                                    IpeaConfig(window=win, m=m), seed=11)

    def test_amplitude_guess_over_two_sectors(self, tmp_path, h4_system):
        # 36 + 16 determinants, padded to a 64-amplitude system register
        n_orb, spectra, win = h4_system
        path = tmp_path / "two_sectors.amp"
        path.write_text("0.8 11001100\n0.6 11101000\n")
        guess = load_amplitude_guess(path)
        assert guess.sectors == {(2, 2), (3, 1)}
        self._common_random_numbers(guess.to_statevector(), [spectra[(2, 2)], spectra[(3, 1)]],
                                    IpeaConfig(window=win, m=10), seed=13)

    def test_register_needs_only_the_sector_qubits(self, monkeypatch, h4_system):
        # H4 (2,2) has 36 determinants: 1 + 6 qubits fit a cap of the 8 system qubits,
        # which the full n + 1 qubit register exceeds
        n_orb, spectra, win = h4_system
        guess = hf_determinant(n_orb, 2, 2).to_statevector()
        cfg = IpeaConfig(window=win, m=8)
        monkeypatch.setattr(statevector, "DEFAULT_QUBIT_CAP", guess.n_qubits)
        rec, final = ipea_a_run(guess, [spectra[(2, 2)]], cfg, np.random.default_rng(0))
        assert rec.bits.m == 8 and final.n_qubits == guess.n_qubits
        with pytest.raises(CapExceeded):
            ipea_a_run_full_register(guess, [spectra[(2, 2)]], cfg, np.random.default_rng(0))


class TestVariantAMemo:
    """Runs that share a memo against the same runs without one."""

    @staticmethod
    def _guess(case, h2_spectrum_11, window, h4_system, m):
        name, kind = case
        n_orb, spectra, win = _system(name, h2_spectrum_11, window, h4_system)
        sector = (n_orb // 2, n_orb // 2)
        if kind == "hf":
            guess = hf_determinant(n_orb, *sector)
        else:
            guess = random_sector_state(n_orb, sector, np.random.default_rng(m))
        return guess.to_statevector(), [spectra[sector]], IpeaConfig(window=win, m=m)

    @pytest.mark.parametrize("m", [10, 20])
    @pytest.mark.parametrize("case", [("h2", "hf"), ("h2", "random"), ("h4", "hf")])
    def test_common_random_numbers_give_identical_runs(self, case, m, h2_spectrum_11,
                                                        window, h4_system):
        guess, spectra, cfg = self._guess(case, h2_spectrum_11, window, h4_system, m)
        rng, rng_bare = np.random.default_rng(11), np.random.default_rng(11)
        memo = {}
        for _ in range(300):
            rec, final = ipea_a_run(guess, spectra, cfg, rng, True, memo=memo)
            bare, final_bare = ipea_a_run(guess, spectra, cfg, rng_bare, True)
            assert rec == bare  # bits, energy and overlap trace
            assert final.amplitudes.tobytes() == final_bare.amplitudes.tobytes()
        assert 0 < len(memo) < 300 * m

    def test_gates_run_once_per_level_and_prefix(self, monkeypatch, h2_spectrum_11,
                                                 window):
        calls = {"controlled_u": 0, "measure": 0}
        propagate, measure = (phase_estimation.controlled_u_power_exact,
                              phase_estimation.measure_qubit)

        def counting_propagate(*args):
            calls["controlled_u"] += 1
            return propagate(*args)

        def counting_measure(*args):
            calls["measure"] += 1
            return measure(*args)

        monkeypatch.setattr(phase_estimation, "controlled_u_power_exact",
                            counting_propagate)
        monkeypatch.setattr(phase_estimation, "measure_qubit", counting_measure)
        guess = random_sector_state(2, (1, 1), np.random.default_rng(3)).to_statevector()
        cfg = IpeaConfig(window=window, m=12)
        rng, memo, runs = np.random.default_rng(17), {}, 200
        outcomes = [ipea_a_run(guess, [h2_spectrum_11], cfg, rng, memo=memo)[0].bits.outcome
                    for _ in range(runs)]
        # level k runs after the bits of levels m..k+1, the low m - k bits of v
        pairs = {(k, v & ((1 << (cfg.m - k)) - 1)) for v in outcomes
                 for k in range(1, cfg.m + 1)}
        # only a miss measures; a hit draws its bit from the stored branch norms
        assert calls["controlled_u"] == calls["measure"] == len(pairs) == len(memo)

    def test_budget_caps_entries_not_outcomes(self, monkeypatch, h2_spectrum_11, window):
        guess = random_sector_state(2, (1, 1), np.random.default_rng(3)).to_statevector()
        cfg = IpeaConfig(window=window, m=10)
        memo = {}
        ipea_a_run(guess, [h2_spectrum_11], cfg, np.random.default_rng(0), memo=memo)
        monkeypatch.setattr(phase_estimation, "A_MEMO_BYTES",
                            next(iter(memo.values()))[0].nbytes)
        rng, rng_bare, memo = np.random.default_rng(5), np.random.default_rng(5), {}
        for _ in range(100):
            rec, _ = ipea_a_run(guess, [h2_spectrum_11], cfg, rng, memo=memo)
            assert len(memo) <= 1
            assert rec == ipea_a_run(guess, [h2_spectrum_11], cfg, rng_bare)[0]
        assert len(memo) == 1


    @pytest.mark.parametrize("track", [False, True])
    def test_warm_memo_replay_runs_no_gates(self, track, monkeypatch, h2_spectrum_11,
                                            window, h4_system):
        guess, spectra, cfg = self._guess(("h4", "random"), h2_spectrum_11, window,
                                          h4_system, 12)
        memo, runs = {}, 300
        warm = np.random.default_rng(23)
        for _ in range(runs):
            ipea_a_run(guess, spectra, cfg, warm, track, memo=memo)
        bare_rng = np.random.default_rng(23)
        bare = [ipea_a_run(guess, spectra, cfg, bare_rng, track) for _ in range(runs)]

        calls = []
        for name in ("controlled_u_power_exact", "apply_gate", "measure_qubit"):
            monkeypatch.setattr(phase_estimation, name,
                                lambda *args, name=name: calls.append(name))
        rng = np.random.default_rng(23)
        for rec_bare, final_bare in bare:
            rec, final = ipea_a_run(guess, spectra, cfg, rng, track, memo=memo)
            assert rec == rec_bare  # bits, energy and overlap trace
            assert final.amplitudes.tobytes() == final_bare.amplitudes.tobytes()
        assert calls == []

    @pytest.mark.parametrize("amplitudes", [
        (1.0, 0.0),  # p1 = 0
        (0.0, 1.0),  # p0 = 0
        (0.6, 0.8j),
        (np.sqrt(1 / 3), np.sqrt(2 / 3)),
    ])
    def test_hit_rule_reads_measure_qubit_bit_at_threshold(self, amplitudes):
        sv = StateVector(2, np.array([amplitudes[0], 0.0, amplitudes[1], 0.0], complex))
        p0, p1 = statevector._branch_norms(sv, 1)
        for u in _threshold_uniforms(p0, p1):
            hit = statevector._draw(p0, p1, _Uniforms(u))
            bit, _ = statevector.measure_qubit(sv.copy(), 1, _Uniforms(u))
            assert hit == bit, u

    def test_hit_reads_the_bit_a_miss_reads(self, h2_spectrum_11, window):
        # m = 1: a run with a fresh memo misses its one level and measures;
        # one with a warm memo hits and draws from the stored norms
        guess = random_sector_state(2, (1, 1), np.random.default_rng(3)).to_statevector()
        cfg, memo = IpeaConfig(window=window, m=1), {}
        for _ in range(2):  # the miss stores the level, the first hit adds its norms
            ipea_a_run(guess, [h2_spectrum_11], cfg, _Uniforms(0.5), memo=memo)
        _, p0, p1 = memo[(1, 0)]
        bits = set()
        for u in _threshold_uniforms(p0, p1):
            rec, final = ipea_a_run(guess, [h2_spectrum_11], cfg, _Uniforms(u), memo=memo)
            rec_miss, final_miss = ipea_a_run(guess, [h2_spectrum_11], cfg, _Uniforms(u))
            assert rec == rec_miss, u
            assert final.amplitudes.tobytes() == final_miss.amplitudes.tobytes()
            bits.add(rec.bits.outcome)
        assert bits == {0, 1}


class _Uniforms:
    """Generator stand-in whose random() returns the given uniforms in turn."""

    def __init__(self, *values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _threshold_uniforms(p0, p1):
    """Uniforms in [0, 1) at and beside p1 / (p0 + p1), where the bit flips."""
    t = p1 / (p0 + p1)
    grid = {0.0, np.nextafter(0.0, 1.0), 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0),
            t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)}
    return sorted(float(u) for u in grid if 0.0 <= u < 1.0)


class TestIpeaASuccessProbability:
    def test_exact_phase_eigenstate(self):
        sv, spectra, window = diagonal_system(0.25, 1.0, 0.0)
        cfg = IpeaConfig(window=window, m=2)
        p_down, p_up = ipea_a_success_probability(sv, spectra, cfg, (1, 0))
        assert p_down == pytest.approx(1.0, abs=1e-12)
        assert p_up == pytest.approx(0.0, abs=1e-12)

    def test_half_weight_worst_remainder(self):
        # half overlap on the target, remainder delta = 1/2
        m = 16
        phi_target = 1.0 / (1 << (m + 1))  # delta = 1/2 at m bits
        weights = [(0.5, phi_target), (0.5, 0.75)]
        b, down, up = rounding_masses(phi_target, m)
        p_tot = 0.5 * (down + up)
        assert 0.81 * 0.5 < p_tot <= 0.5

    def test_matches_distribution_for_pure_eigenstate(self):
        sv, spectra, window = diagonal_system(0.21, 1.0, 0.0)
        m = 5
        cfg = IpeaConfig(window=window, m=m)
        p_down, p_up = ipea_a_success_probability(sv, spectra, cfg, (1, 0))
        phi = window.phase_of(0.21)
        dist = pea_distribution([(1.0, phi)], m)
        b, _, _ = rounding_masses(phi, m)
        assert p_down == pytest.approx(dist[b], abs=1e-12)
        assert p_up == pytest.approx(dist[(b + 1) % (1 << m)], abs=1e-12)

    def test_unknown_target(self, h2_hf_state, h2_spectrum_11, window):
        cfg = IpeaConfig(window=window, m=4)
        with pytest.raises(KeyError):
            ipea_a_success_probability(h2_hf_state, [h2_spectrum_11], cfg, (3, 0))


class TestIpeaVariantB:
    def test_exact_eigenstate_single_repetition(self):
        sv, spectra, window = diagonal_system(0.25, 1.0, 0.0)
        cfg = IpeaConfig(window=window, m=2, variant="B", repetitions_per_bit=1)
        rec = ipea_b_run(sv, spectra, cfg, np.random.default_rng(5))
        assert rec.bits.bits == (1, 1)
        assert rec.per_bit_stats == ((1, 1), (1, 1))

    def test_majority_tail_exact_binomial(self):
        assert _majority_tail(51, 0.75) >= 0.9998
        assert _majority_tail(1, 0.6) == pytest.approx(0.6)
        assert _majority_tail(3, 0.5) == pytest.approx(0.5)

    def test_b_equals_a_for_single_eigenstate_single_rep(self):
        sv, spectra, window = diagonal_system(0.17, 1.0, 0.0)
        for m in (3, 6, 9):
            cfg = IpeaConfig(window=window, m=m, variant="B",
                             repetitions_per_bit=1)
            p_b = ipea_b_success_probability(sv, spectra, cfg, (1, 0))
            p_down, p_up = ipea_a_success_probability(sv, spectra, cfg, (1, 0))
            assert p_b == pytest.approx(p_down + p_up, abs=1e-10)

    def test_exact_phase_always_succeeds(self):
        sv, spectra, window = diagonal_system(0.25, 1.0, 0.0)
        for reps in (1, 3, 11):
            cfg = IpeaConfig(window=window, m=4, variant="B",
                             repetitions_per_bit=reps)
            assert ipea_b_success_probability(sv, spectra, cfg, (1, 0)) == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_recursion_matches_gate_level_runs(self, h2_hf_state, h2_spectrum_11,
                                               window):
        # three-way consistency at small m: gate-level runs vs the exact
        # Bernoulli-mixture recursion
        m, reps = 3, 3
        cfg = IpeaConfig(window=window, m=m, variant="B",
                         repetitions_per_bit=reps)
        target = (0, 0)
        p_exact = ipea_b_success_probability(
            h2_hf_state, [h2_spectrum_11], cfg, target
        )
        b, _, _ = rounding_masses(
            window.phase_of(h2_spectrum_11.eigenvalues[0]), m
        )
        hits = 0
        runs = 800
        rng = np.random.default_rng(17)
        for _ in range(runs):
            outcome, _ = ipea_b_run_gate_level(h2_hf_state, [h2_spectrum_11], cfg, rng)
            if outcome in (b, (b + 1) % (1 << m)):
                hits += 1
        sigma = np.sqrt(p_exact * (1 - p_exact) / runs)
        assert abs(hits / runs - p_exact) < 4 * sigma + 1e-9

    @pytest.mark.parametrize("guess_seed", [0, 1, 2, 3])
    def test_run_and_sampler_share_one_engine(self, guess_seed, h2_spectrum_11, window):
        sv = random_sector_state(
            2, (1, 1), np.random.default_rng(guess_seed)).to_statevector()
        cfg = IpeaConfig(window=window, m=12, variant="B", repetitions_per_bit=5)
        weights = [(w, ph) for w, ph, _, _ in
                   state_decomposition(sv.amplitudes, [h2_spectrum_11], window)]
        rec = ipea_b_run(sv, [h2_spectrum_11], cfg, np.random.default_rng(guess_seed))
        v = sample_b_outcomes(weights, cfg, 1, np.random.default_rng(guess_seed))
        assert rec.bits.outcome == v[0]
        assert [reps for _, reps in rec.per_bit_stats] == [5] * 12
        assert tuple(int(ones > reps // 2) for ones, reps in rec.per_bit_stats) == (
            rec.bits.bits
        )

    def test_recursion_matches_fast_sampler(self, h2_hf_state, h2_spectrum_11,
                                            window):
        m, reps = 8, 5
        cfg = IpeaConfig(window=window, m=m, variant="B",
                         repetitions_per_bit=reps)
        decomp = state_decomposition(
            h2_hf_state.amplitudes, [h2_spectrum_11], window
        )
        weights = [(w, ph) for w, ph, _, _ in decomp]
        p_exact = ipea_b_success_probability(
            h2_hf_state, [h2_spectrum_11], cfg, (0, 0)
        )
        v = sample_b_outcomes(weights, cfg, 100_000, np.random.default_rng(4))
        b, _, _ = rounding_masses(
            window.phase_of(h2_spectrum_11.eigenvalues[0]), m
        )
        freq = float(np.isin(v, [b, (b + 1) % (1 << m)]).mean())
        assert abs(freq - p_exact) < 0.01

    def test_pruning_detail_reported(self, h2_hf_state, h2_spectrum_11, window):
        cfg = IpeaConfig(window=window, m=10, variant="B",
                         repetitions_per_bit=3)
        p, detail = ipea_b_success_probability(
            h2_hf_state, [h2_spectrum_11], cfg, (0, 0), return_detail=True
        )
        assert detail.probability == p
        assert 0.0 <= detail.pruned_mass < 1e-6
        assert detail.n_histories >= 1

    @pytest.mark.parametrize("m", [3, 8, 12])
    @pytest.mark.parametrize("reps", [1, 3, 11, 31, 51, 101])
    @pytest.mark.parametrize("guess_seed", [None, 0, 1, 2])
    def test_recursion_matches_dict_oracle(self, guess_seed, reps, m,
                                           h2_spectrum_11, window):
        if guess_seed is None:
            guess = hf_determinant(2, 1, 1)
        else:
            guess = random_sector_state(2, (1, 1), np.random.default_rng(guess_seed))
        sv = guess.to_statevector()
        cfg = IpeaConfig(window=window, m=m, variant="B", repetitions_per_bit=reps)
        p, detail = ipea_b_success_probability(
            sv, [h2_spectrum_11], cfg, (0, 0), return_detail=True
        )
        decomp = state_decomposition(sv.amplitudes, [h2_spectrum_11], window)
        b, _, _ = rounding_masses(window.phase_of(h2_spectrum_11.eigenvalues[0]), m)
        p_ref, _, _ = b_success_by_dict(
            [(w, ph) for w, ph, _, _ in decomp], m, reps, b, (b + 1) % (1 << m),
            prune_tol=0.0,
        )
        assert abs(p - p_ref) <= 1e-14
        assert detail == phase_estimation.BSuccessDetail(p, 0.0, 2)

    @pytest.mark.parametrize("target", [(0, 0), (0, 1)])
    def test_success_within_unit_interval(self, target, h2_hf_state, h2_spectrum_11,
                                          window):
        # the majority tail rounds a few ulp past 1 here: unclipped, the two
        # target paths sum to 1.0000000000000007 for (0, 0), and a factor
        # 1 - tail < 0 makes (0, 1) come out at -3.9e-16
        cfg = IpeaConfig(window=window, m=3, variant="B", repetitions_per_bit=101)
        p = ipea_b_success_probability(h2_hf_state, [h2_spectrum_11], cfg, target)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
           .filter(lambda xs: sum(x * x for x in xs) > 1e-3),
           m=st.integers(1, 10), half_reps=st.integers(0, 10), target=st.integers(0, 3))
    def test_paths_match_unpruned_tree(self, parts, m, half_reps, target,
                                       h2_spectrum_11, window):
        amps = np.zeros(16, complex)
        amps[h2_spectrum_11.determinants] = np.array(parts[:4]) + 1j * np.array(parts[4:])
        amps /= np.linalg.norm(amps)
        reps = 2 * half_reps + 1
        cfg = IpeaConfig(window=window, m=m, variant="B", repetitions_per_bit=reps)
        p = ipea_b_success_probability(StateVector(4, amps), [h2_spectrum_11], cfg,
                                       (0, target))
        decomp = state_decomposition(amps, [h2_spectrum_11], window)
        b, _, _ = rounding_masses(decomp[target][1], m)
        weights = [(w, ph) for w, ph, _, _ in decomp]
        p_ref, _, _ = b_success_by_dict(weights, m, reps, b, (b + 1) % (1 << m),
                                        prune_tol=0.0)
        assert 0.0 <= p <= 1.0
        assert abs(p - p_ref) <= 1e-14
        w, ph = np.array(weights).T
        outcomes = np.arange(1 << m)
        masses = phase_estimation._path_product(
            phase_estimation._level_probabilities(w, ph, m, outcomes), reps, outcomes)
        assert abs(masses.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(guess_seed=st.integers(0, 2**32 - 1), target=st.integers(0, 1),
           m=st.integers(1, 12),
           counts=st.lists(st.integers(0, 50).map(lambda h: 2 * h + 1),
                           min_size=1, max_size=6))
    def test_one_call_matches_per_count_calls(self, guess_seed, target, m, counts,
                                              h2_spectrum_11, window):
        sv = random_sector_state(
            2, (1, 1), np.random.default_rng(guess_seed)).to_statevector()
        cfg = IpeaConfig(window=window, m=m, variant="B")
        got, detail = ipea_b_success_probability(
            sv, [h2_spectrum_11], cfg, (0, target), return_detail=True,
            repetition_counts=counts,
        )
        per_count = tuple(
            ipea_b_success_probability(
                sv, [h2_spectrum_11],
                IpeaConfig(window=window, m=m, variant="B", repetitions_per_bit=r),
                (0, target),
            )
            for r in counts
        )
        assert got == per_count
        assert detail == phase_estimation.BSuccessDetail(got, 0.0, 2)

    def test_one_call_matches_sampler_at_two_counts(self, h2_spectrum_11, window):
        # a random guess whose success rises from 0.25 at 5 repetitions to
        # 0.73 at 31
        sv = random_sector_state(2, (1, 1), np.random.default_rng(4)).to_statevector()
        m, counts, runs = 8, (5, 31), 20_000
        probs = ipea_b_success_probability(
            sv, [h2_spectrum_11], IpeaConfig(window=window, m=m, variant="B"), (0, 0),
            repetition_counts=counts,
        )
        decomp = state_decomposition(sv.amplitudes, [h2_spectrum_11], window)
        b, _, _ = rounding_masses(decomp[0][1], m)
        rng = np.random.default_rng(8)
        for reps, p in zip(counts, probs):
            cfg = IpeaConfig(window=window, m=m, variant="B", repetitions_per_bit=reps)
            v = sample_b_outcomes([(w, ph) for w, ph, _, _ in decomp], cfg, runs, rng)
            freq = float(np.isin(v, [b, (b + 1) % (1 << m)]).mean())
            assert abs(freq - p) < 5 * np.sqrt(p * (1 - p) / runs)

    @pytest.mark.parametrize("counts, message", [
        ((3, 4), "repetitions_per_bit must be odd and positive"),
        ((0,), "repetitions_per_bit must be odd and positive"),
        ((11, -1), "repetitions_per_bit must be odd and positive"),
        ((), "repetition_counts must not be empty"),
    ])
    def test_repetition_counts_checked_first(self, counts, message, monkeypatch,
                                             h2_hf_state, h2_spectrum_11, window):
        def no_work(*args):
            raise AssertionError("decomposed before the counts were checked")

        monkeypatch.setattr(phase_estimation, "_decompose", no_work)
        cfg = IpeaConfig(window=window, m=4, variant="B")
        with pytest.raises(ValueError, match=message):
            ipea_b_success_probability(h2_hf_state, [h2_spectrum_11], cfg, (0, 0),
                                       repetition_counts=counts)

    def test_sampler_weight_validation(self, h2_hf_state, h2_spectrum_11, window):
        cfg = IpeaConfig(window=window, m=4, variant="B", repetitions_per_bit=3)
        with pytest.raises(WeightNormalization):
            sample_b_outcomes([(0.5, 0.1)], cfg, 10, np.random.default_rng(0))
        with pytest.raises(WeightNormalization):
            ipea_b_run(StateVector(4, 0.5 * h2_hf_state.amplitudes), [h2_spectrum_11], cfg,
                       np.random.default_rng(0))

    @pytest.mark.parametrize("success_probability", [ipea_a_success_probability,
                                                     ipea_b_success_probability])
    def test_success_probability_weight_validation(self, success_probability,
                                                   h2_hf_state, h2_spectrum_11, window):
        # twice the HF amplitudes gave variant A p_up = 3.69 at m=8
        cfg = IpeaConfig(window=window, m=8, variant="B", repetitions_per_bit=3)
        with pytest.raises(WeightNormalization):
            success_probability(StateVector(4, 2.0 * h2_hf_state.amplitudes),
                                [h2_spectrum_11], cfg, (0, 0))


SMALL_REGISTER_CALLS = {
    "u_power_exact": lambda amps, spectra, cfg: u_power_exact(
        StateVector(2, amps), spectra, cfg.window),
    "state_decomposition": lambda amps, spectra, cfg: state_decomposition(
        amps, spectra, cfg.window),
    "ipea_a_success_probability": lambda amps, spectra, cfg: ipea_a_success_probability(
        StateVector(2, amps), spectra, cfg, (0, 0)),
    "ipea_b_success_probability": lambda amps, spectra, cfg: ipea_b_success_probability(
        StateVector(2, amps), spectra, cfg, (0, 0)),
    "ipea_a_run": lambda amps, spectra, cfg: ipea_a_run(
        StateVector(2, amps), spectra, cfg, np.random.default_rng(0)),
    "ipea_b_run": lambda amps, spectra, cfg: ipea_b_run(
        StateVector(2, amps), spectra, cfg, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", sorted(SMALL_REGISTER_CALLS))
def test_register_smaller_than_spectra_rejected(entry, h2_spectrum_11, window):
    # the (1,1) determinants index up to 0b1010 in a 4-amplitude register
    cfg = IpeaConfig(window=window, m=4, variant="B", repetitions_per_bit=3)
    amps = np.array([1, 0, 0, 0], complex)
    with pytest.raises(DimensionMismatch, match="exceed"):
        SMALL_REGISTER_CALLS[entry](amps, [h2_spectrum_11], cfg)


class TestDecodeEnergy:
    def test_zero_phase_gives_e_max(self, window):
        bits = PhaseBits((0, 0, 0, 0))
        assert window.energy_of(bits.value) == window.e_max

    def test_half_phase_recovers_midpoint(self):
        e_scf = -1.2
        w = EvolutionWindow(e_max=0.0, e_min=2 * e_scf)
        bits = PhaseBits((1, 0, 0))
        assert w.energy_of(bits.value) == pytest.approx(e_scf)

    def test_narrow_window_grid_resolution(self):
        w = EvolutionWindow(e_max=-37.5, e_min=-39.0)
        assert w.width * 2.0**-20 == pytest.approx(1.43e-6, rel=2e-3)
