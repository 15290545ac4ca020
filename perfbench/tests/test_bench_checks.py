"""Each output check accepts a well-formed report and rejects a doctored one."""
import csv
import io
import json

import pytest

import hchain
import workloads as wl
from child import Runner

SCAN_FIELDS = ["label", "fcidump", "n_alpha", "n_beta", "target", "variant", "bits",
               "e_max", "e_min", "fci_energy", "overlap_sq", "overlap_scaled", "p_down",
               "p_up", "p_tot", "b_success_r101", "sampled_energy", "error"]


def scan_texts(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCAN_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    points = [{"label": r["label"], "status": "error" if r.get("error") else "ok",
               "search": {"runs": 3}} for r in rows]
    return buf.getvalue(), json.dumps({"points": points})


def row(label, energy, **extra):
    base = {"label": label, "fcidump": "x", "n_alpha": 1, "n_beta": 1, "target": 0,
            "variant": "B", "bits": 20, "e_max": 5.0, "e_min": -4.0,
            "fci_energy": repr(energy), "overlap_sq": "0.9", "overlap_scaled": "0.729",
            "p_down": "0.5", "p_up": "0.3", "p_tot": "0.8", "b_success_r101": "1.0",
            "sampled_energy": repr(energy), "error": ""}
    return base | extra


def h2_rows():
    return [row(f"p{i}", wl.H2_FCI_ENERGY) for i in range(1 + wl.H2_RANDOM_POINTS)]


def test_h2_check():
    assert wl.check_h2_guesses(*scan_texts(h2_rows())) == []
    doctored = [
        lambda rs: rs[3].update(fci_energy=repr(wl.H2_FCI_ENERGY + 1e-9)),
        lambda rs: rs[0].update(p_tot="0.95"),          # above overlap_sq
        lambda rs: rs[5].update(p_tot="0.7"),           # below 0.81 * overlap_sq
        lambda rs: rs.pop(),
        lambda rs: rs[1].update(error="ValueError: boom"),
    ]
    for doctor in doctored:
        rows = h2_rows()
        doctor(rows)
        assert wl.check_h2_guesses(*scan_texts(rows)), doctor


def test_hchain_curve_check():
    e_rhf = {"h4_r1.4": -2.09, "h6_r1.4": -3.08}
    check = wl.make_check_hchain_curve(e_rhf)
    good = [row("h4_r1.4", -2.13), row("h6_r1.4", -3.14)]
    assert check(*scan_texts(good)) == []
    assert check(*scan_texts([row("h4_r1.4", -2.13), row("h6_r1.4", -3.07)]))
    assert check(*scan_texts([row("h4_r1.4", -2.13), row("h8_r1.4", -4.2)]))


def test_hchain_sampling_check():
    step = 9.0 / 2**20
    good = [row("h4_r1.4", -2.1394, sampled_energy=repr(-2.1394 + 0.9 * step)),
            row("h4_r2.4", -2.0764)]
    assert wl.check_hchain_sampling(*scan_texts(good)) == []
    off = [good[0] | {"sampled_energy": repr(-2.1394 + 2 * step)}, good[1]]
    assert wl.check_hchain_sampling(*scan_texts(off))
    # not near-certain: an off-grid sample is allowed
    uncertain = [off[0] | {"b_success_r101": "0.99"}, good[1]]
    assert wl.check_hchain_sampling(*scan_texts(uncertain)) == []
    csv_text, _ = scan_texts(good)
    no_search = json.dumps({"points": [{"label": "h4_r1.4", "status": "ok"},
                                       {"label": "h4_r2.4", "status": "ok"}]})
    assert wl.check_hchain_sampling(csv_text, no_search)


def scaling_csv(totals):
    lines = ["n_basis,fci_dim,hadamard,cnot,rx,rz,controlled_rz,gate_total"]
    lines += [f"{n},1,0,0,0,0,0,{t}" for n, t in zip(wl.SCALING_SIZES, totals)]
    return "\n".join(lines) + "\n"


def test_scaling_check():
    assert wl.check_scaling(scaling_csv(wl.SCALING_GATE_TOTALS), "{}") == []
    doctored = list(wl.SCALING_GATE_TOTALS)
    doctored[2] += 1
    assert wl.check_scaling(scaling_csv(doctored), "{}")
    assert wl.check_scaling(scaling_csv(wl.SCALING_GATE_TOTALS[:-1]), "{}")


class FakeCli:
    """Writes a valid scaling report; the fourth call changes one byte."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        csv_path, json_path = self.outputs
        csv_path.write_text(scaling_csv(wl.SCALING_GATE_TOTALS))
        json_path.write_text('{"seed": 1}\n' if self.calls < 4 else '{"seed": 2}\n')
        return 0


def test_runner_rejects_outputs_that_differ_between_invocations(tmp_path):
    outputs = (tmp_path / "s.csv", tmp_path / "s.json")
    workload = wl.Workload("scaling", (), outputs, 5, wl.check_scaling, (), ())
    runner = Runner(workload, FakeCli(outputs))
    runner.invoke(1)
    runner.invoke(1)
    runner.invoke(2)
    assert (runner.attempted, runner.failed, runner.problems) == (15, 0, [])
    runner.invoke(1)
    assert runner.failed == 5
    assert "differ" in runner.problems[0]


def test_runner_counts_raising_and_nonzero_invocations_as_failed(tmp_path):
    outputs = (tmp_path / "s.csv", tmp_path / "s.json")
    workload = wl.Workload("scaling", (), outputs, 5, wl.check_scaling, (), ())

    class Raises:
        def main(self, argv):
            raise RuntimeError("boom")

    class Exits2:
        def main(self, argv):
            return 2

    for cli in (Raises(), Exits2()):
        runner = Runner(workload, cli)
        runner.invoke(1)
        assert (runner.attempted, runner.failed) == (5, 5)


def test_generator_reproduces_h2_fixture():
    assert hchain.check_against_fixture() < hchain.H2_FIXTURE_TOL


@pytest.mark.parametrize("n_atoms", [4, 6])
def test_chain_records_are_canonical(n_atoms):
    chain = hchain.hydrogen_chain(n_atoms, 1.8)
    records = hchain.fcidump_records(chain.fcidump)
    for i, j, k, l in records:
        if k:
            assert i >= j and k >= l and (i, j) >= (k, l)
    assert records[(0, 0, 0, 0)] > 0
    assert chain.e_rhf < -0.5 * n_atoms
