import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfci.integrals as integrals
from qfci.errors import CapExceeded, ConsistencyError, ParseError
from qfci.integrals import (
    TENSOR_BYTE_BUDGET,
    MolecularIntegrals,
    parse_fcidump,
    random_molecular_integrals,
    to_spin_orbitals,
)


def write(tmp_path, body, header="&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"):
    p = tmp_path / "case.fcidump"
    p.write_text(header + body)
    return p


class TestParseFcidump:
    def test_core_energy_only(self, tmp_path):
        p = write(tmp_path, "-1.25 0 0 0 0\n", header="&FCI NORB=1,NELEC=2,MS2=0,\n&END\n")
        mol = parse_fcidump(p)
        assert mol.core_energy == -1.25
        assert mol.n_orb == 1 and mol.n_elec == 2
        assert np.all(mol.one_body == 0) and np.all(mol.two_body == 0)

    def test_h2_fixture_counts(self, h2_mol):
        # 4 distinct canonical two-body values in the committed file
        nz = np.nonzero(np.triu(np.ones((2, 2))))  # noqa: F841  (shape hint)
        distinct = {round(v, 12) for v in h2_mol.two_body.flat if v != 0.0}
        assert len(distinct) == 4
        assert h2_mol.n_orb == 2 and h2_mol.n_elec == 2 and h2_mol.ms2 == 0

    def test_symmetry_replication(self, tmp_path):
        p = write(tmp_path, "0.7 1 2 1 1\n")
        mol = parse_fcidump(p)
        t = mol.two_body
        # all 8 permutation images carry the stored canonical value
        idx = (0, 1, 0, 0)
        images = {
            (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0),
            (0, 0, 0, 1), (0, 0, 1, 0),
        }
        for i, j, k, l in images:
            assert t[i, j, k, l] == 0.7
        assert t[idx] == 0.7

    def test_one_body_symmetrized(self, tmp_path):
        p = write(tmp_path, "0.5 1 2 0 0\n")
        mol = parse_fcidump(p)
        assert mol.one_body[0, 1] == 0.5
        assert mol.one_body[1, 0] == 0.5

    def test_consistent_duplicates_accepted(self, tmp_path):
        p = write(tmp_path, "0.5 1 2 0 0\n0.5 2 1 0 0\n")
        mol = parse_fcidump(p)
        assert mol.one_body[0, 1] == 0.5

    def test_conflicting_duplicates_rejected(self, tmp_path):
        p = write(tmp_path, "0.5 1 2 0 0\n0.7 2 1 0 0\n")
        with pytest.raises(ConsistencyError):
            parse_fcidump(p)

    def test_missing_norb_rejected(self, tmp_path):
        p = write(tmp_path, "1.0 1 1 1 1\n", header="&FCI NELEC=2,\n&END\n")
        with pytest.raises(ParseError):
            parse_fcidump(p)

    def test_index_out_of_range(self, tmp_path):
        p = write(tmp_path, "1.0 3 1 0 0\n")
        with pytest.raises(ParseError) as err:
            parse_fcidump(p)
        assert "line" in str(err.value)

    def test_fortran_d_exponent(self, tmp_path):
        p = write(tmp_path, "1.5D-01 1 1 0 0\n")
        assert parse_fcidump(p).one_body[0, 0] == 0.15

    def test_slash_terminated_header(self, tmp_path):
        p = write(tmp_path, "0.25 0 0 0 0\n", header="&FCI NORB=2,NELEC=2,MS2=0,\n /\n")
        assert parse_fcidump(p).core_energy == 0.25

    @pytest.mark.parametrize("header", [
        "&FCI TITLE=straße,NORB=1,NELEC=2&END\n",
        "&fci norb=1,nelec=2,&end\n",
    ])
    def test_end_terminator_any_case(self, tmp_path, header):
        mol = parse_fcidump(write(tmp_path, "0.25 0 0 0 0\n", header=header))
        assert (mol.n_orb, mol.n_elec, mol.core_energy) == (1, 2, 0.25)

    def test_end_terminator_not_quoted_in_error(self, tmp_path):
        p = write(tmp_path, "0.25 0 0 0 0\n", header="&FCI NORB=1,NELEC=2,ß&END\n")
        with pytest.raises(ParseError) as info:
            parse_fcidump(p)
        assert "bad integer for NELEC: '2,ß'" in str(info.value)

    def test_orbital_energy_lines_skipped(self, tmp_path):
        # `value i 0 0 0` records an orbital energy; it maps to no tensor
        p = write(tmp_path, "-0.5 1 0 0 0\n0.25 0 0 0 0\n")
        mol = parse_fcidump(p)
        assert np.all(mol.one_body == 0)
        assert mol.core_energy == 0.25

    def test_malformed_body_line(self, tmp_path):
        p = write(tmp_path, "1.0 1 1\n")
        with pytest.raises(ParseError):
            parse_fcidump(p)

    @pytest.mark.parametrize("indices", ["0 1 0 0", "0 2 0 0"])
    def test_zero_first_index_one_body_rejected(self, tmp_path, indices):
        p = write(tmp_path, f"0.25 0 0 0 0\n0.5 {indices}\n")
        with pytest.raises(ParseError, match="unclassifiable") as err:
            parse_fcidump(p)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1D400"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = write(tmp_path, f"0.5 1 2 0 0\n{value} 1 1 0 0\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_fcidump(p)
        assert err.value.line_no == 4


    def test_orbital_count_over_budget_rejected_before_allocating(
        self, tmp_path, monkeypatch
    ):
        p = write(tmp_path, "0.5 1 1 0 0\n", header="&FCI NORB=100000,NELEC=2,\n&END\n")

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(integrals.np, "zeros", refuse)
        with pytest.raises(ParseError, match="GiB") as err:
            parse_fcidump(p)
        assert err.value.line_no == 2

    def test_undecodable_bytes_rejected(self, tmp_path):
        p = tmp_path / "case.fcidump"
        p.write_bytes(b"&FCI NORB=1,NELEC=2,\n&END\n\xff\xfe 1 1 0 0\n")
        with pytest.raises(ParseError, match="UTF-8"):
            parse_fcidump(p)


# mostly well-formed tokens, so that many files parse and the checks
# past the tokenizer (index patterns, duplicates, symmetry) are reached
VALUE = st.sampled_from(["0.5", "-2.5D-1", "1", "0", "0.125", "1e999", "nan", "x"])
INDEX = st.sampled_from(["0", "1", "1", "2", "2", "3", "-1", "q"])
HEADER = st.builds(
    "&FCI NORB={}, NELEC=2, MS2=0,{}\n&END\n".format,
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["", " ORBSYM=1,1,1,", " ISYM=1,"]),
) | st.sampled_from([
    "&FCI NORB=0,NELEC=2,\n&END\n", "&FCI NORB=q,NELEC=2,\n&END\n",
    "&FCI NORB=100000,NELEC=2,\n&END\n", "&FCI NELEC=2,\n/\n",
    "&FCI NORB=2,\n&END\n", "&FCI NORB=2,NELEC=2,MS2=x,\n&END\n",
    "&FCI NORB=2,NELEC=2,\n",
])
BODY_LINE = st.tuples(VALUE, INDEX, INDEX, INDEX, INDEX).map(" ".join) | st.lists(
    VALUE | st.text(max_size=3), max_size=6).map(" ".join)
FCIDUMP_TEXT = st.text() | st.builds(
    lambda header, lines: header + "\n".join(lines) + "\n",
    HEADER, st.lists(BODY_LINE, max_size=5),
)


class TestParseFuzz:
    """Any file gives integrals or a typed parse error, never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(text=FCIDUMP_TEXT)
    def test_any_text(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("fuzz") / "case.fcidump"
        p.write_text(text, encoding="utf-8")
        try:
            mol = parse_fcidump(p)
        except (ParseError, ConsistencyError):
            return
        assert mol.one_body.shape == (mol.n_orb,) * 2
        assert np.all(np.isfinite(mol.two_body))

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary())
    def test_any_bytes(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("fuzz") / "case.fcidump"
        p.write_bytes(b"&FCI NORB=1,NELEC=2,\n&END\n" + data)
        try:
            parse_fcidump(p)
        except (ParseError, ConsistencyError):
            pass


class TestTensorBudget:
    def test_budget_admits_64_orbitals_only(self):
        assert (2 * 64) ** 4 * 8 <= TENSOR_BYTE_BUDGET < (2 * 65) ** 4 * 8

    def test_random_integrals_rejected_before_drawing(self):
        class Refuse:
            def standard_normal(self, *args):
                raise AssertionError("drew before the budget check")

        with pytest.raises(CapExceeded, match="GiB"):
            random_molecular_integrals(200, Refuse())

    def test_spin_orbital_expansion_rejected_before_allocating(self, monkeypatch):
        mol = MolecularIntegrals(65, 2, 0, 0.0, np.zeros((1, 1)), np.zeros((1,) * 4))

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(integrals.np, "zeros", refuse)
        with pytest.raises(CapExceeded, match="GiB"):
            to_spin_orbitals(mol)


class TestMolecularIntegralsInvariants:
    def test_fixture_invariants(self, h2_mol):
        t = h2_mol.two_body
        assert np.allclose(h2_mol.one_body, h2_mol.one_body.T, atol=1e-12)
        for perm in [
            (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
            (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
        ]:
            assert np.allclose(t, np.transpose(t, perm), atol=1e-12)

    def test_random_generator_obeys_invariants(self):
        rng = np.random.default_rng(7)
        mol = random_molecular_integrals(3, rng)
        t = mol.two_body
        assert np.allclose(mol.one_body, mol.one_body.T, atol=1e-14)
        for perm in [(1, 0, 2, 3), (2, 3, 0, 1), (0, 1, 3, 2)]:
            assert np.allclose(t, np.transpose(t, perm), atol=1e-14)

    @pytest.mark.parametrize("n_orb", range(1, 7))
    def test_random_generator_symmetries_hold_bitwise(self, n_orb):
        for seed in range(5):
            mol = random_molecular_integrals(n_orb, np.random.default_rng(seed))
            t = mol.two_body
            assert np.array_equal(mol.one_body, mol.one_body.T)
            for perm in [
                (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
            ]:
                assert np.array_equal(t, np.transpose(t, perm))


class TestToSpinOrbitals:
    def test_single_orbital(self):
        two = np.zeros((1, 1, 1, 1))
        two[0, 0, 0, 0] = 0.5
        mol = MolecularIntegrals(
            n_orb=1, n_elec=2, ms2=0, core_energy=0.0,
            one_body=np.array([[-1.0]]), two_body=two,
        )
        soi = to_spin_orbitals(mol)
        assert soi.n_so == 2
        assert np.allclose(soi.h, np.diag([-1.0, -1.0]))
        assert soi.g[0, 1, 0, 1] == 0.5  # <alpha beta|alpha beta>
        assert soi.g[0, 0, 0, 0] == 0.5  # same-spin value also present

    def test_h2_fixture_blocks(self, h2_mol, h2_soi):
        n = h2_mol.n_orb
        assert np.array_equal(h2_soi.h[:n, :n], h2_mol.one_body)
        assert np.array_equal(h2_soi.h[n:, n:], h2_mol.one_body)
        assert np.all(h2_soi.h[:n, n:] == 0)

    def test_zero_map(self):
        mol = MolecularIntegrals(
            n_orb=2, n_elec=2, ms2=0, core_energy=0.125,
            one_body=np.zeros((2, 2)), two_body=np.zeros((2, 2, 2, 2)),
        )
        soi = to_spin_orbitals(mol)
        assert soi.core_energy == 0.125
        assert not soi.h.any() and not soi.g.any()

    def test_alpha_block_round_trip(self, h2_mol, h2_soi):
        n = h2_mol.n_orb
        assert np.array_equal(h2_soi.h[:n, :n], h2_mol.one_body)

    def test_physicists_symmetry(self, h2_soi):
        g = h2_soi.g
        assert np.allclose(g, np.transpose(g, (1, 0, 3, 2)), atol=1e-12)

    def test_spin_selection_rules(self, h2_soi):
        n = h2_soi.n_so // 2
        spin = np.array([0] * n + [1] * n)
        for p in range(2 * n):
            for q in range(2 * n):
                if spin[p] != spin[q]:
                    assert h2_soi.h[p, q] == 0.0
        g = h2_soi.g
        for p in range(2 * n):
            for q in range(2 * n):
                for r in range(2 * n):
                    for s in range(2 * n):
                        if spin[p] != spin[r] or spin[q] != spin[s]:
                            assert g[p, q, r, s] == 0.0

    def test_chemists_to_physicists_value(self, h2_mol, h2_soi):
        # <pq|rs> = (pr|qs); spot-check the exchange-type entry
        assert h2_soi.g[0, 1, 1, 0] == pytest.approx(
            h2_mol.two_body[0, 1, 0, 1], abs=1e-15
        )
