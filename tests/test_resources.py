import math

import numpy as np
import pytest

from qfci.hamiltonian import (
    PauliOperator,
    PauliString,
    build_second_quantized,
    jordan_wigner,
)
from qfci.integrals import to_spin_orbitals
from qfci.resources import (
    GateCounts,
    count_controlled_u,
    fci_dimension,
    fitted_exponent,
)


def string(*factors) -> PauliString:
    return PauliString(1.0, tuple(factors))


def one_string(*factors) -> PauliOperator:
    """The one-string operator on the qubits up to the highest factor."""
    return PauliOperator(1 + max(q for q, _ in factors), [string(*factors)])


class TestGateCounts:
    def test_as_dict_includes_total(self):
        d = GateCounts(rz=1).as_dict()
        assert d["total"] == 1 and d["rz"] == 1


class TestStringExponential:
    def test_single_z_controlled(self):
        counts = count_controlled_u(one_string((0, "Z")))
        assert counts == GateCounts(controlled_rz=1)

    def test_mixed_three_qubit_string(self):
        # X0 Y1 Z2: two H for the X, two R_x for the Y, a 2(3-1) CNOT
        # ladder, one controlled R_z on the parity end
        counts = count_controlled_u(one_string((0, "X"), (1, "Y"), (2, "Z")))
        assert counts == GateCounts(hadamard=2, cnot=4, rx=2, controlled_rz=1)

    def test_all_z_ladder_scaling(self):
        for w in (1, 2, 5, 9):
            counts = count_controlled_u(one_string(*((q, "Z") for q in range(w))))
            assert counts.cnot == 2 * (w - 1)
            assert counts.controlled_rz == 1
            assert counts.hadamard == counts.rx == counts.rz == 0

    def test_idle_qubits_cost_nothing(self):
        # X0 Y1 Z3 X5: the ladder spans the four factors, not qubits 2 and 4
        op = one_string((0, "X"), (1, "Y"), (3, "Z"), (5, "X"))
        assert count_controlled_u(op) == GateCounts(hadamard=4, cnot=6, rx=2,
                                                    controlled_rz=1)


class TestOperatorCounts:
    def test_single_string_operator(self):
        # X0 X2: two H per X and a 2(2-1) CNOT ladder around one rotation
        op = PauliOperator(3, [string((0, "X"), (2, "X"))])
        assert count_controlled_u(op) == GateCounts(hadamard=4, cnot=2, controlled_rz=1)

    def test_identity_strings_cost_nothing(self):
        op = PauliOperator(2, [PauliString(0.5, ()), string((0, "Z"))])
        assert count_controlled_u(op) == GateCounts(controlled_rz=1)

    def test_h2_golden_counts(self, h2_soi):
        op = jordan_wigner(build_second_quantized(h2_soi), 4)
        # independent recount straight off the string list
        h = cx = rx = rot = 0
        for s in op.terms:
            if not s.factors:
                continue
            letters = [p for _, p in s.factors]
            h += 2 * letters.count("X")
            rx += 2 * letters.count("Y")
            cx += 2 * (len(letters) - 1)
            rot += 1
        got = count_controlled_u(op)
        assert got == GateCounts(hadamard=h, cnot=cx, rx=rx, controlled_rz=rot)
        assert got.as_dict() == {
            "hadamard": 16,
            "cnot": 36,
            "rx": 16,
            "rz": 0,
            "controlled_rz": 14,
            "total": 82,
        }


class TestFciDimension:
    def test_h2_sector(self):
        assert fci_dimension(2, 1, 1) == 4

    def test_ch2_like_sector(self):
        assert fci_dimension(7, 4, 4) == math.comb(7, 4) ** 2 == 1225

    def test_sector_sum_is_full_fock_space(self):
        # summing over all (na, nb) recovers 2^(2 n_orb), here 2^14
        n_orb = 7
        total = sum(
            fci_dimension(n_orb, na, nb)
            for na in range(n_orb + 1)
            for nb in range(n_orb + 1)
        )
        assert total == 2 ** (2 * n_orb)


class TestFittedExponent:
    def test_recovers_synthetic_power_law(self):
        sizes = np.array([4, 6, 8, 10, 12])
        totals = 2.5 * sizes**3.7
        assert fitted_exponent(sizes, totals) == pytest.approx(3.7, abs=1e-12)

    def test_tolerates_multiplicative_noise(self):
        rng = np.random.default_rng(8)
        sizes = np.arange(4, 21, 2)
        totals = 0.3 * sizes**4.5 * np.exp(rng.normal(0, 0.02, sizes.size))
        assert fitted_exponent(sizes, totals) == pytest.approx(4.5, abs=0.1)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fitted_exponent([4], [10])
