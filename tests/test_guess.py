import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfci.errors import (
    ElectronCountExceedsOrbitals,
    EmptyAfterThreshold,
    MalformedLine,
    OverlapWithCore,
)
from qfci.guess import (
    GuessState,
    hf_determinant,
    load_amplitude_guess,
    open_shell_csf,
    random_sector_state,
    write_amplitude_guess,
)
from qfci.hamiltonian import enumerate_sector
from qfci.phase_estimation import IpeaConfig, ipea_a_success_probability
from tests.oracles import dense_s_squared

SQ2 = 1.0 / np.sqrt(2.0)


@st.composite
def sector_12_guesses(draw):
    """Normalised guesses over distinct (1,2) determinants, in drawn order."""
    n_orb = draw(st.integers(2, 4))
    masks = draw(st.lists(st.sampled_from(enumerate_sector(n_orb, 1, 2)),
                          min_size=1, unique=True))
    part = st.floats(-1.0, 1.0)
    real = draw(st.booleans())
    amps = np.array([complex(draw(part), 0.0 if real else draw(part)) for _ in masks])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    amps /= norm
    return GuessState(2 * n_orb, tuple(zip(masks, amps.tolist())))


class TestGuessState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            GuessState(2, ((0b01, 0.5 + 0j),))

    def test_nan_norm_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            GuessState(2, ((0b01, complex("nan")),))

    def test_sector_mixing_rejected_unless_flagged(self):
        entries = ((0b0001, SQ2 + 0j), (0b0011, SQ2 + 0j))  # (1,0) and (2,0)
        with pytest.raises(ValueError):
            GuessState(4, entries)
        ok = GuessState(4, entries, multi_sector=True)
        assert ok.sectors == {(1, 0), (2, 0)}

    def test_statevector_round_trip_bit_exact(self):
        g = open_shell_csf(3, core=(0,), open_pair=(1, 2), coupling="triplet")
        sv = g.to_statevector()
        idx = np.flatnonzero(sv.amplitudes)
        assert set(zip(idx.tolist(), sv.amplitudes[idx].tolist())) == set(g.entries)


class TestHfDeterminant:
    def test_minimal(self):
        g = hf_determinant(1, 1, 1)
        assert g.entries == ((0b11, 1.0 + 0j),)

    def test_mask_bits(self):
        g = hf_determinant(3, 2, 1)
        mask = g.entries[0][0]
        assert mask == (0b011 | 0b001 << 3)

    def test_h2_overlap_with_ground(self, h2_hf_state, h2_spectrum_11):
        ground = h2_spectrum_11.embed(0, 4)
        assert abs(np.vdot(ground, h2_hf_state.amplitudes)) ** 2 > 0.9

    def test_too_many_electrons(self):
        with pytest.raises(ElectronCountExceedsOrbitals):
            hf_determinant(2, 3, 1)


class TestOpenShellCsf:
    def test_singlet_amplitudes(self):
        g = open_shell_csf(2, core=(), open_pair=(0, 1), coupling="singlet")
        assert np.allclose([a for _, a in g.entries], [SQ2, SQ2])

    def test_triplet_orthogonal_to_singlet(self):
        s = open_shell_csf(2, core=(), open_pair=(0, 1), coupling="singlet")
        t = open_shell_csf(2, core=(), open_pair=(0, 1), coupling="triplet")
        dot = sum(
            a * np.conj(dict(t.entries)[m]) for m, a in s.entries
        )
        assert dot == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("coupling,s2", [("singlet", 0.0), ("triplet", 2.0)])
    def test_spin_eigenstate(self, coupling, s2):
        for n_orb, core, pair in [(2, (), (0, 1)), (3, (0,), (1, 2)),
                                  (4, (0, 3), (1, 2))]:
            g = open_shell_csf(n_orb, core=core, open_pair=pair, coupling=coupling)
            psi = g.to_statevector().amplitudes
            out = dense_s_squared(n_orb) @ psi
            assert np.allclose(out, s2 * psi, atol=1e-12), (n_orb, coupling)

    def test_overlap_with_core(self):
        with pytest.raises(OverlapWithCore):
            open_shell_csf(3, core=(1,), open_pair=(1, 2), coupling="singlet")


class TestLoadAmplitudeGuess:
    def write(self, tmp_path, text):
        p = tmp_path / "guess.txt"
        p.write_text(text)
        return p

    def test_threshold_filtering(self, tmp_path):
        p = self.write(tmp_path, "0.95 0101\n0.25 1001\n0.05 0110\n")
        g = load_amplitude_guess(p, threshold=0.2)
        assert len(g.entries) == 2
        norm2 = sum(abs(a) ** 2 for _, a in g.entries)
        assert norm2 == pytest.approx(1.0, abs=1e-12)

    def test_subset_monotonicity(self, tmp_path):
        p = self.write(tmp_path, "0.9 0101\n0.3 1001\n0.15 0110\n0.05 1010\n")
        loose = {m for m, _ in load_amplitude_guess(p, threshold=0.1).entries}
        tight = {m for m, _ in load_amplitude_guess(p, threshold=0.2).entries}
        assert tight <= loose

    def test_signs_preserved(self, tmp_path):
        # leftmost character is qubit 0, so "1010" sets bits 0 and 2
        p = self.write(tmp_path, "0.8 0101\n-0.6 1010\n")
        by_mask = dict(load_amplitude_guess(p).entries)
        assert by_mask[0b0101].real < 0 < by_mask[0b1010].real

    def test_leftmost_char_is_qubit0(self, tmp_path):
        p = self.write(tmp_path, "1.0 1000\n")
        g = load_amplitude_guess(p)
        assert g.entries[0][0] == 0b0001

    def test_comments_and_blank_lines(self, tmp_path):
        p = self.write(tmp_path, "# header\n\n1.0 0101  # inline\n")
        assert len(load_amplitude_guess(p).entries) == 1

    def test_malformed_line_number(self, tmp_path):
        p = self.write(tmp_path, "1.0 0101\nbroken\n")
        with pytest.raises(MalformedLine) as err:
            load_amplitude_guess(p)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("amplitude", ["inf", "-inf", "nan", "1+nanj", "infj"])
    def test_non_finite_amplitude_rejected(self, amplitude, tmp_path):
        # nan fails every threshold test, so it used to be dropped silently;
        # inf made every normalised amplitude nan
        p = self.write(tmp_path, f"1.0 0110\n{amplitude} 1010\n")
        with pytest.raises(MalformedLine, match="non-finite amplitude") as err:
            load_amplitude_guess(p)
        assert "line 2" in str(err.value)

    def test_inconsistent_length(self, tmp_path):
        p = self.write(tmp_path, "0.7 0101\n0.7 011\n")
        with pytest.raises(MalformedLine):
            load_amplitude_guess(p)

    def test_empty_after_threshold(self, tmp_path):
        p = self.write(tmp_path, "0.05 0101\n")
        with pytest.raises(EmptyAfterThreshold):
            load_amplitude_guess(p, threshold=0.1)

    def test_twelve_configurations(self, tmp_path):
        dets = enumerate_sector(3, 1, 1)[:3] + enumerate_sector(3, 2, 2)
        lines = [
            f"{1.0 / np.sqrt(len(dets)):.12f} "
            + "".join("1" if d >> q & 1 else "0" for q in range(6))
            for d in dets
        ]
        p = self.write(tmp_path, "\n".join(lines) + "\n")
        g = load_amplitude_guess(p)
        assert len(g.entries) <= 12
        assert g.multi_sector

    def test_file_round_trip(self, tmp_path):
        g = open_shell_csf(3, core=(0,), open_pair=(1, 2), coupling="singlet")
        p = tmp_path / "csf.txt"
        write_amplitude_guess(p, g)
        back = load_amplitude_guess(p)
        assert dict(back.entries) == pytest.approx(dict(g.entries))

    def test_zero_amplitude_entry_is_dropped_so_the_file_round_trips(self, tmp_path):
        g = GuessState(6, ((25, 0j), (26, 1j)))
        assert g.entries == ((26, 1j),)
        p = tmp_path / "zero.txt"
        write_amplitude_guess(p, g)
        assert load_amplitude_guess(p).entries == g.entries

    @settings(max_examples=200, deadline=None)
    @given(sector_12_guesses())
    def test_round_trip_keeps_masks_order_and_amplitudes(self, tmp_path_factory, g):
        p = tmp_path_factory.getbasetemp() / "round_trip.txt"
        write_amplitude_guess(p, g)
        back = load_amplitude_guess(p)
        assert [m for m, _ in back.entries] == [m for m, _ in g.entries]
        for (_, a), (_, b) in zip(back.entries, g.entries):
            assert abs(a - b) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(sector_12_guesses(), st.data())
    def test_threshold_keeps_entries_strictly_above(self, tmp_path_factory, g, data):
        magnitudes = [abs(a) for _, a in g.entries]
        t = data.draw(st.sampled_from(magnitudes) | st.floats(0.0, 1.0))
        p = tmp_path_factory.getbasetemp() / "threshold.txt"
        write_amplitude_guess(p, g)
        expect = [m for m, a in g.entries if abs(a) > t]
        if not expect:
            with pytest.raises(EmptyAfterThreshold):
                load_amplitude_guess(p, threshold=t)
            return
        assert [m for m, _ in load_amplitude_guess(p, threshold=t).entries] == expect


class TestRandomSectorState:
    def test_support(self):
        rng = np.random.default_rng(0)
        g = random_sector_state(2, (1, 1), rng)
        assert {m for m, _ in g.entries} == set(enumerate_sector(2, 1, 1))

    def test_zero_outside_sector(self):
        rng = np.random.default_rng(1)
        sv = random_sector_state(2, (1, 1), rng).to_statevector()
        outside = np.delete(np.arange(16), enumerate_sector(2, 1, 1))
        assert np.all(sv.amplitudes[outside] == 0)

    def test_mean_energy_matches_trace(self, h2_terms, h2_spectrum_11):
        from qfci.hamiltonian import apply_operator

        rng = np.random.default_rng(42)
        draws = 1000
        vals = np.empty(draws)
        for i in range(draws):
            psi = random_sector_state(2, (1, 1), rng).to_statevector().amplitudes
            vals[i] = np.vdot(psi, apply_operator(h2_terms, psi)).real
        spectral_mean = float(np.mean(h2_spectrum_11.eigenvalues))
        sigma = np.std(vals) / np.sqrt(draws)
        assert abs(vals.mean() - spectral_mean) < 3 * sigma


class TestHfSuccessBound:
    def test_equilibrium_hf_guess_succeeds(self, h2_hf_state, h2_spectrum_11, window):
        cfg = IpeaConfig(window=window, m=20)
        p_down, p_up = ipea_a_success_probability(
            h2_hf_state, [h2_spectrum_11], cfg, (0, 0)
        )
        assert p_down + p_up > 0.5
