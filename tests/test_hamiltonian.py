from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfci.hamiltonian as hamiltonian
from qfci.errors import DimensionMismatch, ElectronCountExceedsOrbitals, SectorTooLarge
from qfci.guess import GuessState, hf_determinant
from qfci.hamiltonian import (
    CHUNK_ELEMENTS,
    JW_CHUNK_ELEMENTS,
    SECTOR_CAP,
    FermionTerm,
    FermionTerms,
    PauliOperator,
    PauliString,
    apply_operator,
    build_second_quantized,
    enumerate_sector,
    exact_eigensolve,
    jordan_wigner,
    sector_of,
)
from qfci.integrals import (
    MolecularIntegrals,
    SpinOrbitalIntegrals,
    parse_fcidump,
    random_molecular_integrals,
    to_spin_orbitals,
)
from qfci.phase_estimation import state_decomposition
from qfci.propagator import EvolutionWindow
from tests.conftest import FIXTURES, H2_SECTOR_11_EIGENVALUES
from tests.oracles import (
    build_second_quantized_by_loop,
    dense_fermion,
    dense_ladder,
    dense_pauli,
    jordan_wigner_by_dict,
    sector_matrix_by_loop,
)


class TestBuildSecondQuantized:
    def test_single_mode(self):
        from qfci.integrals import SpinOrbitalIntegrals

        soi = SpinOrbitalIntegrals(
            n_so=1, core_energy=0.0,
            h=np.array([[-1.0]]), g=np.zeros((1, 1, 1, 1)),
        )
        terms = build_second_quantized(soi)
        assert len(terms) == 1
        assert terms[0].coefficient == -1.0
        assert terms[0].ops == ((0, True), (0, False))

    def test_h2_term_count(self, h2_soi, h2_terms):
        expected = (
            1  # core
            + int(np.count_nonzero(h2_soi.h))
            + int(np.count_nonzero(h2_soi.g))
        )
        assert len(h2_terms) == expected

    def test_zero_integrals_identity(self):
        from qfci.integrals import SpinOrbitalIntegrals

        soi = SpinOrbitalIntegrals(
            n_so=2, core_energy=0.75,
            h=np.zeros((2, 2)), g=np.zeros((2, 2, 2, 2)),
        )
        terms = build_second_quantized(soi)
        assert len(terms) == 1 and terms[0].ops == ()
        psi = np.array([0.5, 0.5, 0.5, 0.5], complex)
        assert np.allclose(apply_operator(terms, psi), 0.75 * psi)


def assert_same_terms(terms, ref):
    """Equal term for term, with Python int modes, bool flags and float coefficients."""
    assert len(terms) == len(ref)
    for t, r in zip(terms, ref):
        assert t == r
        assert type(t.coefficient) is float
        assert all(type(m) is int and type(c) is bool for m, c in t.ops)


class TestFermionTerms:
    def test_matches_loop_build_on_h2(self, h2_soi, h2_terms):
        ref = build_second_quantized_by_loop(h2_soi)
        assert_same_terms(h2_terms, ref)
        assert_same_terms([h2_terms[i] for i in range(-len(ref), 0)], ref)
        assert h2_terms[3:9] == ref[3:9]
        with pytest.raises(IndexError):
            h2_terms[len(ref)]

    def test_hand_built_terms_round_trip(self):
        terms = [
            FermionTerm(0.5, ()),
            FermionTerm(-1.0, ((1, True), (0, False))),
            FermionTerm(0.25, ((0, True), (1, True), (1, False), (0, False))),
            FermionTerm(2.0, ((2, True), (2, False))),
        ]
        view = FermionTerms.from_terms(terms)
        assert [run[2].size for run in view.runs] == [1, 1, 1, 1]
        assert_same_terms(view, terms)

    def test_length_builds_no_terms(self, h2_terms, monkeypatch):
        def refuse(*args):
            raise AssertionError("len() built a FermionTerm")

        monkeypatch.setattr(hamiltonian, "FermionTerm", refuse)
        assert len(h2_terms) == 37

    def test_too_few_modes_rejected(self, h2_terms):
        with pytest.raises(DimensionMismatch, match="outside 0..1"):
            exact_eigensolve(h2_terms, 2, (1, 0))
        with pytest.raises(DimensionMismatch):
            jordan_wigner(h2_terms, 2)


@st.composite
def molecular_integrals(draw):
    """Random spatial integrals: zero or nonzero core, h or g all zero, sparse g."""
    n_orb = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mol = random_molecular_integrals(n_orb, rng)
    one, two = mol.one_body, mol.two_body
    one_kind = draw(st.sampled_from(["dense", "zero"]))
    two_kind = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if one_kind == "zero":
        one = np.zeros_like(one)
    if two_kind == "zero":
        two = np.zeros_like(two)
    elif two_kind == "sparse":
        two = np.where(rng.random(two.shape) < 0.2, two, 0.0)
    core = draw(st.sampled_from([0.0, mol.core_energy]))
    return MolecularIntegrals(n_orb, mol.n_elec, 0, core, one, two)


class TestBuildProperties:
    @settings(max_examples=60, deadline=None)
    @given(molecular_integrals())
    def test_arrays_match_loop_build(self, mol):
        soi = to_spin_orbitals(mol)
        terms = build_second_quantized(soi)
        ref = build_second_quantized_by_loop(soi)
        assert_same_terms(terms, ref)
        n_so = soi.n_so
        assert_same_operator(jordan_wigner(terms, n_so), jordan_wigner(ref, n_so))
        sector = ((mol.n_orb + 1) // 2, mol.n_orb // 2)
        got = exact_eigensolve(terms, n_so, sector)
        want = exact_eigensolve(ref, n_so, sector)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)


class TestJordanWigner:
    def test_number_operator(self):
        op = jordan_wigner([FermionTerm(1.0, ((0, True), (0, False)))], 1)
        by_word = {s.word(1): s.coefficient for s in op.terms}
        assert by_word == {"I": pytest.approx(0.5), "Z": pytest.approx(-0.5)}

    def test_hopping_term(self):
        terms = [
            FermionTerm(1.0, ((1, True), (0, False))),
            FermionTerm(1.0, ((0, True), (1, False))),
        ]
        op = jordan_wigner(terms, 2)
        by_word = {s.word(2): s.coefficient for s in op.terms}
        assert by_word == {"XX": pytest.approx(0.5), "YY": pytest.approx(0.5)}

    def test_h2_dense_equivalence(self, h2_terms):
        op = jordan_wigner(h2_terms, 4)
        assert np.allclose(dense_pauli(op), dense_fermion(h2_terms, 4), atol=1e-12)

    def test_real_coefficients(self, h2_terms):
        op = jordan_wigner(h2_terms, 4)
        assert all(abs(s.coefficient.imag) < 1e-12 for s in op.terms)

    def test_like_strings_merged(self, h2_terms):
        op = jordan_wigner(h2_terms, 4)
        words = [s.word(4) for s in op.terms]
        assert len(words) == len(set(words))

    def test_randomized_dense_equivalence(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            mol = random_molecular_integrals(3, rng)
            soi = to_spin_orbitals(mol)
            terms = build_second_quantized(soi)
            op = jordan_wigner(terms, soi.n_so)
            assert np.allclose(
                dense_pauli(op), dense_fermion(terms, soi.n_so), atol=1e-12
            )

    def test_tiny_coefficients_pruned(self):
        terms = [FermionTerm(1e-16, ((0, True), (0, False)))]
        assert jordan_wigner(terms, 1).terms == []

    def test_negative_mode_rejected(self):
        with pytest.raises(DimensionMismatch):
            jordan_wigner([FermionTerm(1.0, ((-1, True), (-1, False)))], 2)

    def test_mode_beyond_register_rejected(self):
        with pytest.raises(DimensionMismatch):
            jordan_wigner([FermionTerm(1.0, ((2, True), (2, False)))], 2)

    def test_more_than_62_modes_rejected(self):
        with pytest.raises(DimensionMismatch):
            jordan_wigner([FermionTerm(1.0, ((63, True), (63, False)))], 64)

    def test_highest_mode_of_62(self):
        op = jordan_wigner([FermionTerm(1.0, ((61, True), (61, False)))], 62)
        assert [s.word(62)[61] for s in op.terms] == ["I", "Z"]


class TestPauliOperatorArrays:
    def test_hand_built_strings_round_trip(self):
        strings = [
            PauliString(0.5 + 0j, ()),
            PauliString(-0.25 + 0j, ((0, "X"), (2, "Y"))),
            PauliString(1j, ((1, "Z"), (2, "Z"))),
        ]
        op = PauliOperator(3, strings)
        assert op.x.tolist() == [0, 0b101, 0]
        assert op.z.tolist() == [0, 0b100, 0b110]
        assert op.terms == strings
        assert op.terms[1] == strings[1] and op.terms[-1] == strings[-1]

    def test_length_builds_no_strings(self, h2_terms, monkeypatch):
        op = jordan_wigner(h2_terms, 4)

        def refuse(*args):
            raise AssertionError("len() built a PauliString")

        monkeypatch.setattr(hamiltonian, "_factors", refuse)
        assert len(op.terms) == op.x.size == op.z.size == op.coeffs.size == 15


def _random_terms(n_orb: int, seed: int):
    mol = random_molecular_integrals(n_orb, np.random.default_rng(seed))
    return build_second_quantized(to_spin_orbitals(mol))


def assert_same_operator(op, ref):
    assert op.n_qubits == ref.n_qubits
    assert np.array_equal(op.x, ref.x)
    assert np.array_equal(op.z, ref.z)
    assert np.array_equal(op.coeffs, ref.coeffs)


class TestJordanWignerOracle:
    @pytest.mark.parametrize(
        "n_orb", [0, 2, 3, 4, 5, 6, 7],
        ids=["h2"] + [f"random{n}" for n in range(2, 8)],
    )
    def test_matches_dict_merge_exactly(self, h2_terms, n_orb):
        """n_orb 0 stands for the H2 fixture; random7 spans several blocks."""
        terms = h2_terms if n_orb == 0 else _random_terms(n_orb, 40 + n_orb)
        n_so = 4 if n_orb == 0 else 2 * n_orb
        op = jordan_wigner(terms, n_so)
        ref = jordan_wigner_by_dict(terms, n_so)
        assert_same_operator(op, ref)

    def test_largest_case_spans_several_chunks(self):
        terms = _random_terms(7, 47)
        components = sum(1 << len(t.ops) for t in terms)
        assert components > 2 * JW_CHUNK_ELEMENTS

    @pytest.mark.parametrize("n_modes", [32, 41, 62])
    def test_matches_dict_merge_above_31_modes(self, n_modes):
        """Masks of two modes no longer fit one int64 key above 31 modes."""
        rng = np.random.default_rng(n_modes)
        terms = []
        for _ in range(40):
            p, q, r, s = rng.integers(33 if n_modes > 33 else 0, n_modes, 4).tolist()
            c = float(rng.standard_normal())
            terms += [
                FermionTerm(c, ((p, True), (q, False))),
                FermionTerm(c, ((q, True), (p, False))),
                FermionTerm(c, ((p, True), (q, True), (s, False), (r, False))),
                FermionTerm(c, ((r, True), (s, True), (q, False), (p, False))),
            ]
        terms.append(FermionTerm(0.75, ((0, True), (n_modes - 1, False))))
        terms.append(FermionTerm(0.75, ((n_modes - 1, True), (0, False))))
        op = jordan_wigner(terms, n_modes)
        ref = jordan_wigner_by_dict(terms, n_modes)
        assert_same_operator(op, ref)
        assert int(op.x.max()) >> (n_modes - 1) == 1


def odd_y(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(x & z) & 1) == 1


class TestHermitianJordanWigner:
    """Marked terms skip the odd-Y strings and still map bit for bit."""

    def assert_marked_matches_unmarked(self, terms, n_so) -> int:
        """Bitwise checks; returns the number of odd-Y components skipped."""
        assert terms.hermitian
        skipped = 0
        unmarked = FermionTerms(terms.runs)
        assert not unmarked.hermitian
        assert_same_operator(jordan_wigner(terms, n_so), jordan_wigner(unmarked, n_so))
        for modes, creation, coef in terms.runs:
            x, z, value = hamiltonian._term_components(modes, creation, coef, even_y=True)
            assert not odd_y(x, z).any()
            xa, za, va = hamiltonian._term_components(modes, creation, coef)
            even = ~odd_y(xa, za)
            for got, want in ((x, xa), (z, za), (value, va)):
                assert np.array_equal(got, want[even])
            skipped += int(np.count_nonzero(~even))
        return skipped

    def test_h2_fixture(self, h2_terms):
        assert self.assert_marked_matches_unmarked(h2_terms, 4) > 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_random_integrals(self, n_orb, seed):
        self.assert_marked_matches_unmarked(_random_terms(n_orb, seed), 2 * n_orb)

    def test_hand_built_terms_unmarked(self, h2_terms):
        assert not FermionTerms.from_terms(list(h2_terms)).hermitian
        with pytest.raises(AttributeError):
            h2_terms.hermitian = False

    @pytest.mark.parametrize("tensor", ["h", "g"])
    def test_asymmetric_integrals_keep_odd_y_strings(self, h2_soi, tensor):
        h, g = h2_soi.h.copy(), h2_soi.g.copy()
        if tensor == "h":
            h[0, 1], h[1, 0] = 0.3, -0.1
        else:
            g[0, 2, 1, 3] += 0.1
        terms = build_second_quantized(SpinOrbitalIntegrals(4, h2_soi.core_energy, h, g))
        assert not terms.hermitian
        op = jordan_wigner(terms, 4)
        assert_same_operator(op, jordan_wigner_by_dict(terms, 4))
        assert odd_y(op.x, op.z).any()


LADDER = st.tuples(st.integers(0, 2), st.booleans())
TERM = st.builds(
    FermionTerm,
    st.sampled_from([0.5, -0.5, 1.25, -1.0])
    | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3),
    st.sampled_from([0, 2, 4]).flatmap(
        lambda k: st.lists(LADDER, min_size=k, max_size=k).map(tuple)
    ),
)


ODD_TERM = st.builds(
    FermionTerm,
    st.floats(-2.0, 2.0),
    st.sampled_from([1, 3]).flatmap(
        lambda k: st.lists(LADDER, min_size=k, max_size=k).map(tuple)
    ),
)


class TestTermMasks:
    @settings(max_examples=300, deadline=None)
    @given(TERM | ODD_TERM)
    def test_masks_rebuild_the_dense_term(self, term):
        """[D ^ flip, D] = coef (-1)^popcount(D & chain) on alive D, zero elsewhere."""
        modes, creation, coef = FermionTerms.from_terms([term]).runs[0]
        masks, signed = hamiltonian._term_masks(modes, creation, coef)
        occ, empty, flip, chain = masks[:, 0].tolist()
        mat = np.zeros((8, 8))
        for det in range(8):
            if det & occ == occ and not det & empty:
                mat[det ^ flip, det] = signed[0] * (-1) ** (det & chain).bit_count()
        assert np.array_equal(mat, dense_fermion([term], 3))


class TestJordanWignerProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(TERM, max_size=6))
    def test_random_terms_match_dense_and_dict(self, terms):
        op = jordan_wigner(terms, 3)
        assert np.allclose(dense_pauli(op), dense_fermion(terms, 3), atol=1e-12)
        assert_same_operator(op, jordan_wigner_by_dict(terms, 3))


    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.builds(FermionTerm, st.floats(-2.0, 2.0),
                  st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                           max_size=6).map(tuple)),
        max_size=5,
    ))
    def test_terms_of_any_length_match_dict(self, terms):
        """Odd lengths and modes repeated up to six times in one term."""
        assert_same_operator(jordan_wigner(terms, 4), jordan_wigner_by_dict(terms, 4))


class TestApplyOperator:
    def test_identity_only(self):
        op = PauliOperator(2, [PauliString(2.5 + 0j, ())])
        psi = np.array([0.1, 0.2, 0.3, 0.4], complex)
        assert np.allclose(apply_operator(op, psi), 2.5 * psi)

    def test_z_sign_convention(self):
        op = PauliOperator(2, [PauliString(1.0 + 0j, ((0, "Z"),))])
        psi = np.zeros(4, complex)
        psi[1] = 1.0  # qubit 0 occupied
        assert np.allclose(apply_operator(op, psi), -psi)

    def test_random_pauli_vs_dense(self):
        rng = np.random.default_rng(4)
        strings = []
        for _ in range(12):
            factors = tuple(
                (q, "XYZ"[rng.integers(3)])
                for q in sorted(rng.choice(4, rng.integers(1, 4), replace=False))
            )
            strings.append(PauliString(complex(rng.standard_normal()), factors))
        op = PauliOperator(4, strings)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(
            apply_operator(op, psi), dense_pauli(op) @ psi, atol=1e-12
        )

    def test_fermionic_path_vs_dense(self, h2_terms):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(
            apply_operator(h2_terms, psi), dense_fermion(h2_terms, 4) @ psi,
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        op = PauliOperator(3, [PauliString(1.0 + 0j, ((0, "Z"),))])
        with pytest.raises(DimensionMismatch):
            apply_operator(op, np.zeros(4, complex))

    def test_sector_preserved(self, h2_terms):
        rng = np.random.default_rng(2)
        dets = enumerate_sector(2, 1, 1)
        psi = np.zeros(16, complex)
        psi[dets] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        out = apply_operator(h2_terms, psi)
        outside = np.delete(np.arange(16), dets)
        assert np.max(np.abs(out[outside])) < 1e-13

    def test_hermiticity(self, h2_terms):
        rng = np.random.default_rng(9)
        phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        lhs = np.vdot(phi, apply_operator(h2_terms, psi))
        rhs = np.conj(np.vdot(psi, apply_operator(h2_terms, phi)))
        assert abs(lhs - rhs) < 1e-12


MODE_CHECKS = {
    "apply_operator": lambda terms: apply_operator(terms, np.zeros(16, complex)),
    "jordan_wigner": lambda terms: jordan_wigner(terms, 4),
    "exact_eigensolve": lambda terms: exact_eigensolve(terms, 4, (1, 1)),
}


@pytest.mark.parametrize("mode", [-1, 4])
@pytest.mark.parametrize("entry", MODE_CHECKS.values(), ids=MODE_CHECKS.keys())
def test_mode_outside_register_rejected(entry, mode):
    with pytest.raises(DimensionMismatch, match="outside 0..3"):
        entry([FermionTerm(1.0, ((mode, True), (0, False)))])


class TestLadderAlgebra:
    def test_anticommutation(self):
        n = 4
        dim = 1 << n
        for p in range(n):
            for q in range(n):
                eye = np.eye(dim)
                a_p = np.column_stack(
                    [apply_operator([FermionTerm(1.0, ((p, False),))], eye[:, c])
                     for c in range(dim)]
                )
                adag_q = np.column_stack(
                    [apply_operator([FermionTerm(1.0, ((q, True),))], eye[:, c])
                     for c in range(dim)]
                )
                anti = a_p @ adag_q + adag_q @ a_p
                expect = np.eye(dim) if p == q else np.zeros((dim, dim))
                assert np.allclose(anti, expect, atol=1e-14)

    def test_matches_dense_ladder(self):
        rng = np.random.default_rng(14)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for mode in range(3):
            for creation in (False, True):
                assert np.allclose(
                    apply_operator([FermionTerm(1.0, ((mode, creation),))], psi),
                    dense_ladder(3, mode, creation) @ psi,
                    atol=1e-14,
                )


class TestSectors:
    def test_sector_of(self):
        assert sector_of(0b0101, 2) == (1, 1)
        assert sector_of(0b0011, 2) == (2, 0)
        assert sector_of(0b1100, 2) == (0, 2)

    def test_enumerate_sector_dimension(self):
        assert len(enumerate_sector(2, 1, 1)) == 4
        assert len(enumerate_sector(7, 4, 3)) == 35 * 35

    @pytest.mark.parametrize("sector", [(3, 1), (1, 3), (10**30, 1)])
    def test_sector_beyond_orbitals_rejected(self, sector):
        # an empty sector gave an empty spectrum, and 10**30 an OverflowError
        with pytest.raises(ElectronCountExceedsOrbitals):
            enumerate_sector(2, *sector)

    def test_enumerate_sector_sorted_and_consistent(self):
        dets = enumerate_sector(3, 2, 1)
        assert dets == sorted(dets)
        assert all(sector_of(d, 3) == (2, 1) for d in dets)


class TestExactEigensolve:
    def test_zero_hamiltonian(self):
        terms = [FermionTerm(1.5, ())]
        spec = exact_eigensolve(terms, 4, (1, 1))
        assert np.allclose(spec.eigenvalues, 1.5)

    def test_h2_ground_energy(self, h2_spectrum_11):
        assert np.allclose(
            h2_spectrum_11.eigenvalues, H2_SECTOR_11_EIGENVALUES, atol=1e-10
        )

    def test_residuals(self, h2_terms, h2_spectrum_11):
        for i in range(h2_spectrum_11.dimension):
            v = h2_spectrum_11.embed(i, 4)
            resid = apply_operator(h2_terms, v) - h2_spectrum_11.eigenvalues[i] * v
            assert np.linalg.norm(resid) <= 1e-10

    def test_eigenvectors_orthonormal(self, h2_spectrum_11):
        v = h2_spectrum_11.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10)

    def test_eigenvalues_ascending(self, h2_spectrum_11):
        e = h2_spectrum_11.eigenvalues
        assert np.all(np.diff(e) >= 0)

    def test_sector_too_large(self, h2_terms, monkeypatch):
        monkeypatch.setattr(hamiltonian, "SECTOR_CAP", 3)
        with pytest.raises(SectorTooLarge):
            exact_eigensolve(h2_terms, 4, (1, 1))

    def test_default_cap_rejects_before_building(self, monkeypatch):
        """n_orb=10 (5,5) has dimension 63504, over the memory-derived cap."""
        def refuse(*args):
            raise AssertionError("sector built before the cap check")

        monkeypatch.setattr(hamiltonian, "enumerate_sector", refuse)
        monkeypatch.setattr(hamiltonian, "_sector_matrix", refuse)
        assert SECTOR_CAP < 63504
        with pytest.raises(SectorTooLarge, match=r"63504 > cap .* about 150\.2 GiB"):
            exact_eigensolve([], 20, (5, 5))

    def test_mode_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            exact_eigensolve([FermionTerm(1.0, ((10, True), (10, False)))], 4, (1, 1))

    def test_term_leaving_sector(self):
        with pytest.raises(DimensionMismatch):
            exact_eigensolve([FermionTerm(1.0, ((0, True),))], 4, (1, 1))


ORACLE_CASES = [
    pytest.param(system, n_so, sector, id=f"{system}-{sector[0]}{sector[1]}")
    for system, n_so, sectors in (
        ("h2", 4, [(a, b) for a in range(3) for b in range(3)]),
        ("random3", 6, [(1, 1), (2, 1)]),
        ("random4", 8, [(2, 2), (3, 1)]),
        ("random5", 10, [(2, 2), (3, 2)]),
    )
    for sector in sectors
]


def assert_solves(spec, mat):
    """spec holds mat's eigenpairs: eigenvalues within 1e-12 of dense eigh,
    orthonormal eigenvectors and residuals to 1e-12."""
    v, e = spec.eigenvectors, spec.eigenvalues
    assert np.abs(e - np.linalg.eigvalsh(mat)).max() <= 1e-12
    assert np.abs(v.T @ v - np.eye(e.size)).max() <= 1e-12
    assert np.abs(mat @ v - v * e).max() <= 1e-12


class TestSectorBuildOracle:
    @pytest.mark.parametrize("system,n_so,sector", ORACLE_CASES)
    def test_matches_loop_build_exactly(self, h2_terms, system, n_so, sector):
        terms = h2_terms if system == "h2" else _random_terms(n_so // 2, 20 + n_so)
        expected = sector_matrix_by_loop(terms, n_so, sector)
        dets = np.array(enumerate_sector(n_so // 2, *sector), dtype=np.int64)
        built = hamiltonian._sector_matrix(terms, n_so, dets, sector)
        assert built.tobytes() == expected.tobytes()
        spec = exact_eigensolve(terms, n_so, sector)
        assert_solves(spec, expected)
        if system != "h2":  # random integrals couple every determinant: one component
            assert len(hamiltonian._components(expected)) == 1
            eigenvalues, eigenvectors = np.linalg.eigh(expected)
            assert np.array_equal(spec.eigenvalues, eigenvalues)
            assert np.array_equal(spec.eigenvectors, eigenvectors)

    def test_largest_case_spans_several_chunks(self):
        terms = _random_terms(5, 30)
        dim = len(enumerate_sector(5, 3, 2))
        assert dim * len(terms) > 8 * CHUNK_ELEMENTS


@st.composite
def hand_made_sector_builds(draw):
    """(terms, n_so, sector): hand-made terms of 0-4 ops on a small sector.

    Free terms take any ops in any order, so they repeat modes, die on
    every determinant or leave the sector; paired terms conserve the
    particle number, and flip spin when a pair's modes differ in spin.
    """
    n_orb = draw(st.integers(1, 3))
    n_so = 2 * n_orb
    sector = (draw(st.integers(0, n_orb)), draw(st.integers(0, n_orb)))
    mode = st.integers(0, n_so - 1)
    free = st.lists(st.tuples(mode, st.booleans()), max_size=4)
    paired = st.lists(st.tuples(mode, mode), max_size=2).flatmap(
        lambda pairs: st.permutations([(p, True) for p, _ in pairs]
                                      + [(q, False) for _, q in pairs]))
    term = st.builds(FermionTerm, st.floats(-2.0, 2.0), st.one_of(free, paired).map(tuple))
    return draw(st.lists(term, max_size=6)), n_so, sector


class TestSectorBuildHandMadeTerms:
    @settings(max_examples=300, deadline=None)
    @given(hand_made_sector_builds())
    def test_matches_loop_build_bitwise_or_raises_when_alive_outside(self, case):
        terms, n_so, sector = case
        dets = np.array(enumerate_sector(n_so // 2, *sector), dtype=np.int64)
        try:
            expected = sector_matrix_by_loop(terms, n_so, sector)
        except KeyError:  # some term maps a determinant out of the sector
            with pytest.raises(DimensionMismatch, match="maps determinant 0x"):
                hamiltonian._sector_matrix(terms, n_so, dets, sector)
            return
        built = hamiltonian._sector_matrix(terms, n_so, dets, sector)
        assert built.tobytes() == expected.tobytes()

    def test_spin_flip_dead_on_the_sector_is_not_an_error(self):
        # a+ alpha 0 a beta 0 finds no beta electron in (1, 0); a_1 a_1 dies everywhere
        terms = [FermionTerm(1.0, ((0, True), (2, False))),
                 FermionTerm(0.5, ((1, False), (1, False)))]
        dets = np.array(enumerate_sector(2, 1, 0), dtype=np.int64)
        assert not hamiltonian._sector_matrix(terms, 4, dets, (1, 0)).any()


@st.composite
def planted_blocks(draw):
    """(matrix, blocks): 1-4 random symmetric blocks on a random permutation
    of the rows, with exact zeros between blocks; each block is dense, so
    connected."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rows = np.array(draw(st.permutations(range(sum(sizes)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = np.zeros((rows.size, rows.size))
    blocks = []
    for part in np.split(rows, np.cumsum(sizes)[:-1]):
        a = rng.standard_normal((part.size, part.size))
        mat[np.ix_(part, part)] = a + a.T
        blocks.append(np.sort(part))
    return mat, sorted(blocks, key=lambda b: b[0])


class TestBlockSolve:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(planted_blocks())
    def test_planted_blocks_are_found_and_solved_apart(self, case):
        mat, blocks = case
        found = hamiltonian._components(mat)
        assert [b.tolist() for b in found] == [b.tolist() for b in blocks]
        # sector (1, 0) of n_orb = dim orbitals has one determinant per orbital
        dim = mat.shape[0]
        with patch.object(hamiltonian, "_sector_matrix", lambda *args: mat.copy()):
            spec = exact_eigensolve([], 2 * dim, (1, 0))
        assert_solves(spec, mat)
        for block in blocks:
            off = np.setdiff1d(np.arange(dim), block)
            on_block = spec.eigenvectors[block].any(axis=0)
            assert on_block.sum() == block.size
            assert (spec.eigenvectors[np.ix_(off, np.flatnonzero(on_block))] == 0.0).all()

    def test_ties_keep_component_order(self):
        pair = np.array([[0.0, 1.0], [1.0, 0.0]])
        top = np.linalg.eigh(pair)[0][1]
        mat = np.zeros((3, 3))
        mat[np.ix_([0, 2], [0, 2])] = pair
        mat[1, 1] = top
        with patch.object(hamiltonian, "_sector_matrix", lambda *args: mat.copy()):
            spec = exact_eigensolve([], 6, (1, 0))
        # rows {0, 2} are the first component, so their copy of `top` comes first
        assert spec.eigenvalues[1] == spec.eigenvalues[2] == top
        assert spec.eigenvectors[1].tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("sector", [(3, 3), (2, 1)])
    def test_random_six_orbital_sector_matches_dense(self, sector):
        # ORACLE_CASES covers H2 and random n_orb 3-5 against the loop build
        terms = _random_terms(6, 46)
        dets = np.array(enumerate_sector(6, *sector), dtype=np.int64)
        assert_solves(exact_eigensolve(terms, 12, sector),
                      hamiltonian._sector_matrix(terms, 12, dets, sector))

    def test_h4_hf_guess_has_no_weight_off_its_component(self):
        mol = parse_fcidump(FIXTURES / "h4_r1.8.fcidump")
        terms = build_second_quantized(to_spin_orbitals(mol))
        spec = exact_eigensolve(terms, 8, (2, 2))
        found = hamiltonian._components(
            hamiltonian._sector_matrix(terms, 8, spec.determinants, (2, 2)))
        assert [b.size for b in found] == [20, 16]
        hf = hf_determinant(4, 2, 2)
        row = int(np.searchsorted(spec.determinants, hf.entries[0][0]))
        touched, other = found if row in found[0] else found[::-1]
        elsewhere = ~spec.eigenvectors[touched].any(axis=0)
        assert elsewhere.sum() == other.size
        decomp = state_decomposition(hf.to_statevector().amplitudes, [spec],
                                     EvolutionWindow(e_max=5.0, e_min=-4.0))
        weights = np.array([w for w, *_ in decomp])
        assert weights[elsewhere].tolist() == [0.0] * other.size
        assert weights[~elsewhere].sum() == pytest.approx(1.0, abs=1e-12)


class TestSpectraHelpers:
    def test_guess_sectors_cover_support(self):
        entries = [(0b0001, 1.0 / np.sqrt(2)), (0b0101, 1.0 / np.sqrt(2))]  # (1,0), (1,1)
        assert GuessState(4, tuple(entries), multi_sector=True).sectors == {(1, 0), (1, 1)}
        entries.append((0b1000, 1e-16))  # sector (0,1): every nonzero amplitude counts, as in a scan
        assert GuessState(4, tuple(entries), multi_sector=True).sectors == {
            (0, 1), (1, 0), (1, 1)}

    def test_eigen_weights_sum(self, h2_terms, h2_hf_state, h2_spectrum_11, window):
        decomp = state_decomposition(h2_hf_state.amplitudes, [h2_spectrum_11], window)
        assert sum(w for w, *_ in decomp) == pytest.approx(1.0, abs=1e-12)
        weight, _, _, pair = decomp[0]
        assert pair == (0, 0) and weight > 0.9

    def test_eigen_weights_rejects_overlapping_blocks(self, h2_hf_state, h2_spectrum_11,
                                                      window):
        with pytest.raises(DimensionMismatch):
            state_decomposition(h2_hf_state.amplitudes, [h2_spectrum_11, h2_spectrum_11],
                                window)
