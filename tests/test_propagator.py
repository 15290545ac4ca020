import numpy as np
import pytest

import qfci.propagator as propagator
from qfci.errors import DimensionMismatch, MissingSector
from qfci.hamiltonian import (
    FermionTerm,
    PauliOperator,
    PauliString,
    SectorSpectrum,
    basis_product,
    eigen_coefficients,
    exact_eigensolve,
    jordan_wigner,
)
from qfci.propagator import (
    EvolutionWindow,
    TrotterPlan,
    controlled_u_power_exact,
    trotter_u,
    u_power_exact,
)
from qfci.statevector import (
    HADAMARD,
    StateVector,
    apply_gate,
    new_register,
    rz_phase,
)
from tests.oracles import dense_fermion, dense_pauli


def dense_window_u(terms, n: int, window: EvolutionWindow, power: int = 1):
    """Independent spectral oracle for U^power = e^{i tau (E_max - H) power}."""
    h = dense_fermion(terms, n)
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * window.tau * (window.e_max - w) * power)
    return (v * phases) @ v.conj().T


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


@pytest.fixture(scope="module")
def h2_full_spectra(h2_terms):
    return [
        exact_eigensolve(h2_terms, 4, (a, b)) for a in range(3) for b in range(3)
    ]


class TestEvolutionWindow:
    def test_tau(self):
        w = EvolutionWindow(e_max=1.0, e_min=-1.5)
        assert w.tau == pytest.approx(2 * np.pi / 2.5)

    def test_phase_energy_round_trip(self, window):
        for e in (-1.2, -0.3, 0.9):
            assert window.energy_of(window.phase_of(e)) == pytest.approx(e)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            EvolutionWindow(e_max=-1.0, e_min=1.0)

    @pytest.mark.parametrize("e_max, e_min", [(1e308, -1e308), (np.inf, -1.5),
                                              (1.0, -np.inf), (np.inf, -np.inf)])
    def test_width_must_be_finite(self, e_max, e_min):
        with pytest.raises(ValueError, match="no finite width"):
            EvolutionWindow(e_max=e_max, e_min=e_min)


class TestExactPropagator:
    def test_spectral_phases(self, h2_terms, h2_full_spectra, window):
        for spec in h2_full_spectra:
            for i in range(spec.dimension):
                sv = StateVector(4, spec.embed(i, 4))
                u_power_exact(sv, h2_full_spectra, window)
                expect = np.exp(
                    1j * window.tau * (window.e_max - spec.eigenvalues[i])
                ) * spec.embed(i, 4)
                assert np.allclose(sv.amplitudes, expect, atol=1e-10)

    def test_matches_dense_oracle(self, h2_terms, h2_full_spectra, window):
        amps = random_state(4, 3)
        sv = StateVector(4, amps.copy())
        u_power_exact(sv, h2_full_spectra, window, power=5)
        oracle = dense_window_u(h2_terms, 4, window, power=5) @ amps
        assert np.allclose(sv.amplitudes, oracle, atol=1e-10)

    def test_unitarity(self, h2_full_spectra, window):
        sv = StateVector(4, random_state(4, 7))
        for power in (1, 2, 1 << 19):
            u_power_exact(sv, h2_full_spectra, window, power=power)
            assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-10

    def test_power_composition(self, h2_full_spectra, window):
        a = StateVector(4, random_state(4, 11))
        b = a.copy()
        u_power_exact(a, h2_full_spectra, window, power=6)
        u_power_exact(b, h2_full_spectra, window, power=3)
        u_power_exact(b, h2_full_spectra, window, power=3)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-10)

    def test_missing_sector(self, h2_spectrum_11, window):
        sv = StateVector(4, np.zeros(16, complex))
        sv.amplitudes[0b0001] = 1.0  # sector (1,0), not decomposed
        with pytest.raises(MissingSector):
            u_power_exact(sv, [h2_spectrum_11], window)

    def test_overlapping_blocks_rejected(self, h2_hf_state, h2_spectrum_11, window):
        sv = h2_hf_state.copy()
        with pytest.raises(DimensionMismatch):
            u_power_exact(sv, [h2_spectrum_11, h2_spectrum_11], window)

    @pytest.mark.parametrize("controlled", [False, True])
    def test_missing_sector_leaves_register_unchanged(self, controlled,
                                                      h2_spectrum_11, window):
        system = np.zeros(16, complex)
        system[0b0101] = 0.6  # sector (1,1), covered
        system[0b0001] = 0.8  # sector (1,0), not covered
        if controlled:
            sv = new_register(5)
            sv.amplitudes[16:] = system  # control-1 branch of control qubit 4
        else:
            sv = StateVector(4, system.copy())
        before = sv.amplitudes.copy()
        with pytest.raises(MissingSector):
            if controlled:
                controlled_u_power_exact(sv, [h2_spectrum_11], window, 3)
            else:
                u_power_exact(sv, [h2_spectrum_11], window, power=3)
        assert np.array_equal(sv.amplitudes, before)


class TestBasisProducts:
    """Real eigenvectors take the (n, 2) float64 view product, complex ones u @ x."""

    def test_complex_eigenvectors_match_dense_reference(self, window):
        rng = np.random.default_rng(12)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        energies = np.sort(rng.uniform(-1.4, 0.9, 8))
        spec = SectorSpectrum(None, energies, u, np.arange(8))
        psi = random_state(3, 13)
        coefficients, uncovered = eigen_coefficients(psi, [spec])
        assert np.max(np.abs(coefficients[0] - u.conj().T @ psi)) <= 1e-13
        assert abs(uncovered) <= 1e-13
        sv = StateVector(3, psi.copy())
        u_power_exact(sv, [spec], window, power=3)
        theta = 2 * np.pi * 3 * window.phase_of(energies)
        dense = (u * np.exp(1j * theta)) @ u.conj().T
        assert np.max(np.abs(sv.amplitudes - dense @ psi)) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 7, 64])
    def test_real_eigenvectors_match_complex_cast_product(self, dim):
        rng = np.random.default_rng(dim)
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for matrix in (u, u.T):
            got = basis_product(matrix, x)
            assert got.shape == (dim,) and got.dtype == np.complex128
            assert np.max(np.abs(got - matrix.astype(np.complex128) @ x)) <= 1e-14


class TestControlledPropagator:
    def make_joint(self, system: np.ndarray) -> StateVector:
        joint = new_register(5)
        joint.amplitudes[:16] = system
        joint.amplitudes[16:] = 0.0
        apply_gate(joint, HADAMARD, 4)
        return joint

    def test_control0_branch_untouched(self, h2_full_spectra, window):
        system = random_state(4, 1)
        joint = self.make_joint(system)
        before = joint.amplitudes[:16].copy()
        controlled_u_power_exact(joint, h2_full_spectra, window, 8)
        assert np.array_equal(joint.amplitudes[:16], before)

    def test_branch_is_u_power_bitwise(self, h2_full_spectra, window):
        joint = StateVector(5, random_state(5, 34))
        before = joint.amplitudes.reshape(2, 16).copy()
        expect = StateVector(4, before[1].copy())
        u_power_exact(expect, h2_full_spectra, window, power=5)
        controlled_u_power_exact(joint, h2_full_spectra, window, 5)
        after = joint.amplitudes.reshape(2, 16)
        assert np.array_equal(after[1], expect.amplitudes)
        assert np.array_equal(after[0], before[0])

    def test_overlapping_blocks_rejected(self, h2_hf_state, h2_spectrum_11, window):
        joint = self.make_joint(h2_hf_state.amplitudes)
        with pytest.raises(DimensionMismatch):
            controlled_u_power_exact(
                joint, [h2_spectrum_11, h2_spectrum_11], window, 1
            )

    def test_control1_branch_is_u_power(self, h2_terms, h2_full_spectra, window):
        system = random_state(4, 2)
        joint = self.make_joint(system)
        controlled_u_power_exact(joint, h2_full_spectra, window, 4)
        oracle = dense_window_u(h2_terms, 4, window, power=4) @ (
            system / np.sqrt(2)
        )
        assert np.allclose(joint.amplitudes[16:], oracle, atol=1e-10)

    def test_eigenstate_phase_in_turns(self, h2_spectrum_11, h2_full_spectra, window):
        # |1> branch of the readout picks up exactly phi turns for power 1
        ground = h2_spectrum_11.embed(0, 4)
        joint = self.make_joint(ground)
        controlled_u_power_exact(joint, h2_full_spectra, window, 1)
        ratio = joint.amplitudes[16:] @ ground.conj() * np.sqrt(2)
        phi = window.phase_of(h2_spectrum_11.eigenvalues[0])
        assert np.angle(ratio) / (2 * np.pi) % 1.0 == pytest.approx(phi % 1.0, abs=1e-12)

    def test_e_max_eigenvalue_is_fixed_point(self):
        # single spatial orbital; occupying the alpha mode costs 0.75
        terms = [FermionTerm(0.75, ((0, True), (0, False)))]
        spectra = [
            exact_eigensolve(terms, 2, s)
            for s in [(0, 0), (1, 0), (0, 1), (1, 1)]
        ]
        w = EvolutionWindow(e_max=0.75, e_min=-0.25)
        joint = new_register(3)
        joint.amplitudes[:] = 1.0 / np.sqrt(8.0)
        before = joint.amplitudes.copy()
        controlled_u_power_exact(joint, spectra, w, 1)
        # control-1 branch: system mask 1 has E = e_max -> phase 0;
        # system mask 0 has E = 0 -> phase 0.75 turns
        assert joint.amplitudes[4 + 1] == pytest.approx(before[4 + 1], abs=1e-12)
        angle = np.angle(joint.amplitudes[4 + 0] / before[4 + 0]) / (2 * np.pi)
        assert angle % 1.0 == pytest.approx(0.75, abs=1e-12)

    def test_circuit_identity_phase_rotation(self, h2_terms, h2_full_spectra, window):
        # controlled-U == controlled-e^{-i tau H} then Rz(tau E_max) on the
        # control; verify by undoing the rotation and comparing oracles
        system = random_state(4, 5)
        joint = self.make_joint(system)
        controlled_u_power_exact(joint, h2_full_spectra, window, 3)
        apply_gate(
            joint,
            rz_phase(-3 * window.tau * window.e_max / (2 * np.pi)),
            4,
        )
        h = dense_fermion(h2_terms, 4)
        w_, v = np.linalg.eigh(h)
        u_h = (v * np.exp(-1j * window.tau * w_ * 3)) @ v.conj().T
        assert np.allclose(joint.amplitudes[16:], u_h @ (system / np.sqrt(2)),
                           atol=1e-10)


class TestTrotter:
    def test_commuting_diagonal_exact(self):
        terms = [
            FermionTerm(0.3, ((0, True), (0, False))),
            FermionTerm(-0.8, ((1, True), (1, False))),
            FermionTerm(0.1, ()),
        ]
        spectra = [
            exact_eigensolve(terms, 2, s)
            for s in [(0, 0), (1, 0), (0, 1), (1, 1)]
        ]
        w = EvolutionWindow(e_max=1.0, e_min=-1.0)
        amps = random_state(2, 0)
        for n_slices in (1, 3):
            sv = StateVector(2, amps.copy())
            trotter_u(sv, terms, w, TrotterPlan(n_slices=n_slices))
            ref = StateVector(2, amps.copy())
            u_power_exact(ref, spectra, w)
            assert np.allclose(sv.amplitudes, ref.amplitudes, atol=1e-12)

    def test_error_halves_with_doubled_slices(self, h2_terms, h2_full_spectra, window):
        amps = random_state(4, 21)
        ref = StateVector(4, amps.copy())
        u_power_exact(ref, h2_full_spectra, window)

        def err(n):
            sv = StateVector(4, amps.copy())
            trotter_u(sv, h2_terms, window, TrotterPlan(n_slices=n))
            return np.linalg.norm(sv.amplitudes - ref.amplitudes)

        for n0 in (4, 8, 16):
            ratio = err(2 * n0) / err(n0)
            assert 0.4 <= ratio <= 0.6

    def test_first_order_slope(self, h2_terms, h2_full_spectra, window):
        amps = random_state(4, 22)
        ref = StateVector(4, amps.copy())
        u_power_exact(ref, h2_full_spectra, window)
        ns = [4, 8, 16, 32, 64]
        errs = []
        for n in ns:
            sv = StateVector(4, amps.copy())
            trotter_u(sv, h2_terms, window, TrotterPlan(n_slices=n))
            errs.append(np.linalg.norm(sv.amplitudes - ref.amplitudes))
        slope = np.polyfit(np.log(1.0 / np.array(ns)), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_unitarity(self, h2_terms, window):
        sv = StateVector(4, random_state(4, 23))
        trotter_u(sv, h2_terms, window, TrotterPlan(n_slices=7))
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-10

    def test_epsilon_rule_bound(self, h2_terms):
        # wide window => small tau, so the recommended N stays tractable
        wide = EvolutionWindow(e_max=30.0, e_min=30.0 - 20.0 * np.pi)
        assert wide.tau == pytest.approx(0.1)
        eps = 1e-6
        n = 10_000  # the first-order rule N = tau^2 / epsilon
        amps = random_state(4, 24)
        spectra = [
            exact_eigensolve(h2_terms, 4, (a, b))
            for a in range(3) for b in range(3)
        ]
        ref = StateVector(4, amps.copy())
        u_power_exact(ref, spectra, wide)
        sv = StateVector(4, amps.copy())
        trotter_u(sv, h2_terms, wide, TrotterPlan(n_slices=n))
        err = np.linalg.norm(sv.amplitudes - ref.amplitudes)
        assert err <= 10 * eps

    def test_slice_is_product_over_merged_strings(self, h2_terms, window):
        """One rotation per string of jordan_wigner(terms), in its order."""
        n_slices = 3
        theta = window.tau / n_slices
        step = np.eye(16, dtype=complex)
        for s in jordan_wigner(h2_terms, 4).terms:
            p = dense_pauli(PauliOperator(4, [PauliString(1.0, s.factors)]))
            angle = theta * s.coefficient.real
            step = (np.cos(angle) * np.eye(16) - 1j * np.sin(angle) * p) @ step
        expect = np.linalg.matrix_power(step, n_slices) * np.exp(
            1j * window.tau * window.e_max)
        got = np.empty((16, 16), dtype=complex)
        for j in range(16):
            sv = StateVector(4, np.eye(16, dtype=complex)[j])
            got[:, j] = trotter_u(sv, h2_terms, window, TrotterPlan(n_slices)).amplitudes
        assert np.abs(got - expect).max() <= 1e-12

    def test_non_hermitian_terms_rejected(self, window):
        sv = StateVector(2, random_state(2, 29))
        with pytest.raises(ValueError, match="not Hermitian"):
            trotter_u(sv, [FermionTerm(1.0, ((0, True), (1, False)))], window,
                      TrotterPlan(n_slices=1))

class TestCompiledTrotter:
    def test_slice_matrix_matches_slices_applied_to_state(self, h2_terms, window,
                                                          monkeypatch):
        amps = random_state(4, 27)
        plan = TrotterPlan(n_slices=40)  # more slices than the 16 columns
        compiled = StateVector(4, amps.copy())
        trotter_u(compiled, h2_terms, window, plan)
        monkeypatch.setattr(propagator, "SLICE_MATRIX_BYTES", 0)
        direct = StateVector(4, amps.copy())
        trotter_u(direct, h2_terms, window, plan)
        assert np.allclose(compiled.amplitudes, direct.amplitudes, atol=1e-13)
        assert not np.array_equal(compiled.amplitudes, amps)
