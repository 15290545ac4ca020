"""`qfci run` and `qfci scaling` still write the committed golden outputs.

The cases and the comparison rules live in ``tests/golden/regen.py``,
which also rewrites the files after a change that moves outputs on
purpose.
"""
import pytest

from tests.golden import regen


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_outputs_match_golden(case, tmp_path):
    csv_text, json_text = regen.run(case, tmp_path)
    assert regen.compare(case, csv_text, json_text) == []


def test_compare_reports_a_moved_sample_and_a_moved_float(tmp_path):
    csv_text, json_text = regen.run("h2_A", tmp_path)
    moved = json_text.replace('"sampled_energy": -1.138671875', '"sampled_energy": -1.1386718750000002')
    assert moved != json_text
    assert any("sampled_energy" in p for p in regen.compare("h2_A", csv_text, moved))
    header, first, *rest = csv_text.split("\r\n")
    cells = first.split(",")
    col = header.split(",").index("fci_energy")
    cells[col] = repr(float(cells[col]) + 1e-9)
    shifted = "\r\n".join([header, ",".join(cells), *rest])
    assert regen.compare("h2_A", shifted, json_text) == [
        f"h2_A.csv fci_energy: golden {float(first.split(',')[col])!r}, now {float(cells[col])!r}"
    ]
