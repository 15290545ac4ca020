import numpy as np
import pytest

from qfci.errors import CapExceeded, DegenerateState, IndexOutOfRange
from qfci.statevector import (
    HADAMARD,
    StateVector,
    apply_gate,
    measure_qubit,
    new_register,
    rz_phase,
)

SQ2 = 1.0 / np.sqrt(2.0)


def plus_state():
    sv = new_register(1)
    apply_gate(sv, HADAMARD, 0)
    return sv


class TestNewRegister:
    def test_one_qubit(self):
        assert np.array_equal(new_register(1).amplitudes, [1, 0])

    def test_three_qubits(self):
        sv = new_register(3)
        assert sv.amplitudes[0] == 1
        assert not sv.amplitudes[1:].any()

    def test_cap(self):
        with pytest.raises(CapExceeded):
            new_register(25)

    def test_zero_qubits_rejected(self):
        with pytest.raises(IndexOutOfRange):
            new_register(0)


class TestGates:
    def test_hadamard_on_zero(self):
        sv = plus_state()
        assert np.allclose(sv.amplitudes, [SQ2, SQ2])

    def test_rz_quarter_turn(self):
        sv = plus_state()
        apply_gate(sv, rz_phase(0.25), 0)
        assert np.allclose(sv.amplitudes, [SQ2, 1j * SQ2])

    def test_hadamard_involution(self):
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        sv = StateVector(3, amps.copy())
        apply_gate(sv, HADAMARD, 1)
        apply_gate(sv, HADAMARD, 1)
        assert np.allclose(sv.amplitudes, amps, atol=1e-14)

    def test_gate_matrices_unitary(self):
        for m in (HADAMARD, rz_phase(0.3), rz_phase(-0.7)):
            assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-14)

    def test_non_2x2_gate_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            apply_gate(new_register(2), np.eye(3, dtype=complex), 0)

    def test_x_flips(self):
        # H Rz(1/2) H = X, on qubit 1 only
        sv = new_register(2)
        for g in (HADAMARD, rz_phase(0.5), HADAMARD):
            apply_gate(sv, g, 1)
        assert np.allclose(sv.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_z_sign(self):
        # Rz(1/2) = Z negates the bit-1 amplitudes of its target only
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sv = StateVector(3, amps.copy())
        apply_gate(sv, rz_phase(0.5), 1)
        assert np.allclose(sv.amplitudes, amps * [1, 1, -1, -1, 1, 1, -1, -1], atol=1e-15)

    def test_norm_preserved_over_random_sequences(self):
        rng = np.random.default_rng(11)
        sv = new_register(4)
        for _ in range(1000):
            apply_gate(sv, HADAMARD, int(rng.integers(4)))
            if rng.random() < 0.3:
                apply_gate(sv, rz_phase(float(rng.random())), int(rng.integers(4)))
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_index_errors(self):
        sv = new_register(2)
        with pytest.raises(IndexOutOfRange):
            apply_gate(sv, HADAMARD, 2)
        with pytest.raises(IndexOutOfRange):
            measure_qubit(sv, -1, np.random.default_rng(0))


class TestMeasurement:
    def test_deterministic_branch(self):
        sv = StateVector(2, np.array([0, 1, 0, 0], complex))
        apply_gate(sv, HADAMARD, 1)
        rng = np.random.default_rng(0)
        bit, _ = measure_qubit(sv, 0, rng)
        assert bit == 1
        # superposed qubit 1 untouched
        assert np.allclose(sv.amplitudes, [0, SQ2, 0, SQ2], atol=1e-15)

    def test_born_frequencies(self):
        rng = np.random.default_rng(123)
        ones = 0
        trials = 100_000
        for _ in range(trials):
            sv = plus_state()
            bit, _ = measure_qubit(sv, 0, rng)
            ones += bit
        assert abs(ones / trials - 0.5) < 0.01

    def test_collapse_zeroes_other_branch(self):
        rng = np.random.default_rng(3)
        sv = plus_state()
        bit, _ = measure_qubit(sv, 0, rng)
        assert sv.amplitudes[1 - bit] == 0.0
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_chi_square_against_probability_of(self):
        rng = np.random.default_rng(77)
        amps = np.array([0.3, 0.5, 0.4, 0.2, 0.35, 0.25, 0.45, 0.15], complex)
        amps /= np.linalg.norm(amps)
        p1 = float(np.sum(np.abs(amps[4:]) ** 2))
        trials = 10_000
        ones = 0
        for _ in range(trials):
            sv = StateVector(3, amps.copy())
            bit, _ = measure_qubit(sv, 2, rng)
            ones += bit
        # one-cell chi-square at 3 sigma
        sigma = np.sqrt(p1 * (1 - p1) / trials)
        assert abs(ones / trials - p1) < 3 * sigma + 1e-9

    def test_degenerate_state(self):
        sv = StateVector(1, np.zeros(2, complex))
        with pytest.raises(DegenerateState):
            measure_qubit(sv, 0, np.random.default_rng(0))


class TestQueries:
    def test_overlap_hf_vs_fci(self, h2_hf_state, h2_spectrum_11):
        ground = h2_spectrum_11.embed(0, 4)
        val = abs(np.vdot(ground, h2_hf_state.amplitudes)) ** 2
        assert 0.95 < val < 1.0
