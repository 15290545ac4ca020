import contextlib
import csv
import io
import json
import math
import operator
import os
from functools import reduce
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfci.cli as cli
from qfci.cli import SEARCH_CAVEAT, load_scan_config, main
from qfci.phase_estimation import IpeaConfig
from qfci.resources import fci_dimension

from tests.conftest import FIXTURES, H2_SECTOR_11_EIGENVALUES

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "qfci" / "schemas"


# (key path into write_config's config, wrongly typed value); () replaces the whole config
MALFORMED_VALUES = [
    (("ipea", "bits"), "x"),
    (("ipea", "e_max"), "a"),
    (("repetition_counts",), 11),
    (("points", 0, "sector"), [1, "a"]),
    (("points", 0, "sector"), 2),
    (("points", 0, "guess"), "hf"),
    (("points", 0, "target"), "x"),
    (("ipea",), [1]),
    (("outputs",), []),
    (("points",), 5),
    ((), 3),
]

# (key path, JSON value that int() would truncate or accept, key the error names)
NON_INTEGRAL_VALUES = [
    (("ipea", "bits"), 8.9, "ipea.bits"),
    (("ipea", "bits"), True, "ipea.bits"),
    (("ipea", "seed"), 7.0, "ipea.seed"),
    (("ipea", "repetitions_per_bit"), 3.0, "ipea.repetitions_per_bit"),
    (("repetition_counts",), [11.7], "repetition_counts"),
    (("points", 0, "sector"), [True, 1.99], "points[0].sector"),
    (("points", 0, "target"), 0.9, "points[0].target"),
]

# (key path, JSON value that float() would accept, key the error names); the
# threshold cases replace the guess with an amplitudes guess whose file exists
NON_NUMBER_VALUES = [
    (("ipea", "e_max"), True, "ipea.e_max"),
    (("ipea", "e_min"), "-1.5", "ipea.e_min"),
    (("ipea", "e_min"), None, "ipea.e_min"),
    (("points", 0, "guess", "threshold"), "0.1", "points[0].guess.threshold"),
    (("points", 0, "guess", "threshold"), False, "points[0].guess.threshold"),
]

# (key path, value, key the error names): values that need no FCIDUMP to be
# found wrong, which used to become error rows with exit code 0 or tracebacks
BAD_VALUES = [
    (("points", 0, "guess"), {"kind": "csf", "open_pair": [0, 1.5]}, "points[0].guess.open_pair"),
    (("points", 0, "guess"), {"kind": "csf", "open_pair": [0, 1], "core": [True]},
     "points[0].guess.core"),
    (("points", 0, "guess"), {"kind": "csf", "open_pair": [0, 1], "coupling": 3},
     "points[0].guess.coupling"),
    (("points", 0, "guess"), {"kind": "csf", "open_pair": [1, 1]}, "points[0].guess.open_pair"),
    (("points", 0, "guess"), {"kind": "nope"}, "points[0].guess.kind"),
    (("points", 0, "target"), -1, "points[0].target"),
    (("points", 0, "sector"), [-1, 1], "points[0].sector"),
    (("ipea", "seed"), -1, "ipea.seed"),
]


def write_config(tmp_path: Path, **changes) -> Path:
    cfg = {
        "ipea": {"e_max": 1.0, "e_min": -1.5, "bits": 12, "seed": 7},
        "repetition_counts": [1, 3, 5],
        "points": [
            {
                "label": "h2",
                "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                "guess": {"kind": "hf"},
                "sector": [1, 1],
                "target": 0,
            }
        ],
        "outputs": {"csv": "scan.csv", "json": "scan.json"},
    }
    for key, value in changes.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / "scan_config.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def replace_value(cfg_path: Path, where: tuple, value) -> None:
    """Set the config value at key path where; () replaces the whole config."""
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    if where:
        *parents, key = where
        reduce(operator.getitem, parents, cfg)[key] = value
    else:
        cfg = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def validate(report: dict, schema_file: str):
    schema = json.loads((SCHEMA_DIR / schema_file).read_text())
    jsonschema.validate(report, schema)


class TestRunCommand:
    def test_single_point_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0

        rows = read_rows(tmp_path / "scan.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["label"] == "h2"
        assert float(row["fci_energy"]) == pytest.approx(
            H2_SECTOR_11_EIGENVALUES[0], abs=1e-10
        )
        ov = float(row["overlap_sq"])
        p_tot = float(row["p_tot"])
        assert 0.81 * ov < p_tot <= ov + 1e-12
        assert float(row["overlap_scaled"]) == pytest.approx(0.81 * ov)
        # sampled energy decodes onto the phase grid inside the window
        assert -1.5 <= float(row["sampled_energy"]) <= 1.0
        for col in ("b_success_r1", "b_success_r3", "b_success_r5"):
            assert 0.0 <= float(row[col]) <= 1.0

        report = json.loads((tmp_path / "scan.json").read_text())
        validate(report, "scan_report.schema.json")
        assert report["bits"] == 12
        assert report["points"][0]["status"] == "ok"

    def test_b_success_non_decreasing_in_repetitions(self, tmp_path):
        cfg_path = write_config(tmp_path, repetition_counts=[1, 3, 5, 11])
        assert main(["run", "--config", str(cfg_path)]) == 0
        row = read_rows(tmp_path / "scan.csv")[0]
        values = [float(row[f"b_success_r{r}"]) for r in (1, 3, 5, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_point_list(self, tmp_path):
        cfg_path = write_config(tmp_path, points=[])
        assert main(["run", "--config", str(cfg_path)]) == 0
        rows = read_rows(tmp_path / "scan.csv")
        assert rows == []
        report = json.loads((tmp_path / "scan.json").read_text())
        validate(report, "scan_report.schema.json")
        assert report["points"] == []

    def test_point_failure_does_not_abort_scan(self, tmp_path):
        bad = tmp_path / "broken.fcidump"
        bad.write_text("this is not an integral file\n")
        cfg_path = write_config(
            tmp_path,
            points=[
                {
                    "label": "bad",
                    "fcidump": str(bad),
                    "guess": {"kind": "hf"},
                    "sector": [1, 1],
                    "target": 0,
                },
                {
                    "label": "good",
                    "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                    "guess": {"kind": "hf"},
                    "sector": [1, 1],
                    "target": 0,
                },
            ],
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        rows = read_rows(tmp_path / "scan.csv")
        by_label = {r["label"]: r for r in rows}
        assert by_label["bad"]["error"]
        assert by_label["bad"]["fci_energy"] == ""
        assert by_label["good"]["error"] == ""
        report = json.loads((tmp_path / "scan.json").read_text())
        validate(report, "scan_report.schema.json")
        statuses = {p["label"]: p["status"] for p in report["points"]}
        assert statuses == {"bad": "error", "good": "ok"}

    def test_same_seed_reproduces_outputs_byte_for_byte(self, tmp_path):
        cfg_path = write_config(tmp_path)
        outs = []
        for run in ("first", "second"):
            csv_path = tmp_path / run / "scan.csv"
            json_path = tmp_path / run / "scan.json"
            code = main(
                [
                    "run",
                    "--config",
                    str(cfg_path),
                    "--seed",
                    "123",
                    "--csv",
                    str(csv_path),
                    "--json",
                    str(json_path),
                ]
            )
            assert code == 0
            outs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outs[0] == outs[1]

    def test_bits_override_wins_over_config(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--bits", "8"]) == 0
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["bits"] == 8

    def test_random_guess_kind(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            points=[
                {
                    "label": "rand",
                    "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                    "guess": {"kind": "random"},
                    "sector": [1, 1],
                    "target": 0,
                }
            ],
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "scan.json").read_text())
        point = report["points"][0]
        assert point["status"] == "ok"
        assert 0.0 < point["overlap_sq"] <= 1.0

    def test_search_runs_reported_with_caveat(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(["run", "--config", str(cfg_path), "--search-runs", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert SEARCH_CAVEAT in out
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["search_caveat"] == SEARCH_CAVEAT
        search = report["points"][0]["search"]
        assert search["runs"] == 5
        assert 1 <= search["multiplicity"] <= 5
        assert -1.5 <= search["min_energy"] <= 1.0

    def test_variant_a_runs_of_a_point_share_one_memo(self, tmp_path, monkeypatch):
        point = {"fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                 "guess": {"kind": "random"}, "sector": [1, 1]}
        cfg_path = write_config(tmp_path, points=[{**point, "label": "a"},
                                                  {**point, "label": "b"}])
        memos = []
        run = cli.ipea_a_run

        def recording(*args, memo):
            memos.append(memo)
            return run(*args, memo=memo)

        monkeypatch.setattr(cli, "ipea_a_run", recording)
        assert main(["run", "--config", str(cfg_path), "--search-runs", "4"]) == 0
        assert len(memos) == 10  # per point: the sampled run and four searches
        first, second = memos[0], memos[5]
        assert first is not second and first and second
        assert all(m is first for m in memos[:5]) and all(m is second for m in memos[5:])

    def test_electron_count_mismatch_warns(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            points=[
                {
                    "label": "cation",
                    "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                    "guess": {"kind": "hf"},
                    "sector": [1, 0],
                    "target": 0,
                }
            ],
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert "differs from sector" in capsys.readouterr().err
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["points"][0]["status"] == "ok"
        assert len(report["warnings"]) == 1

    def test_points_sharing_a_file_warn_per_point(self, tmp_path):
        h2 = str(FIXTURES / "h2_sto3g_r1.4011.fcidump")
        points = [
            {"label": label, "fcidump": h2, "guess": {"kind": "hf"},
             "sector": sector, "target": 0}
            for label, sector in (("a", [1, 1]), ("cation", [1, 0]), ("b", [1, 1]))
        ]
        cfg_path = write_config(tmp_path, points=points)
        assert main(["run", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "scan.json").read_text())
        assert [p["status"] for p in report["points"]] == ["ok"] * 3
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("cation:")
        energies = [p["fci_energy"] for p in report["points"]]
        assert energies[0] == energies[2]
        assert energies[0] == pytest.approx(H2_SECTOR_11_EIGENVALUES[0], abs=1e-10)

    def test_window_not_bracketing_spectrum_warns(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            ipea={"e_max": -0.5, "e_min": -1.0, "bits": 12, "seed": 3},
            points=[
                {
                    "label": "rand",
                    "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
                    "guess": {"kind": "random"},
                    "sector": [1, 1],
                    "target": 0,
                }
            ],
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert "outside the window" in capsys.readouterr().err
        report = json.loads((tmp_path / "scan.json").read_text())
        assert report["points"][0]["status"] == "ok"
        (warning,) = report["warnings"]
        # the highest (1,1) eigenvalue is the farthest outside (-1.0, -0.5]
        top = H2_SECTOR_11_EIGENVALUES[-1]
        assert warning.startswith("rand: populated eigenvalue")
        assert f"{top:.10g}" in warning
        assert f"{top + 0.5:.3g}" in warning

    def test_repetition_counts_share_one_b_call(self, tmp_path, monkeypatch):
        calls = []
        original = cli.ipea_b_success_probability

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "ipea_b_success_probability", counting)
        fcidump = str(FIXTURES / "h2_sto3g_r1.4011.fcidump")
        points = [
            {"label": label, "fcidump": fcidump, "guess": {"kind": kind},
             "sector": [1, 1], "target": target}
            for label, kind, target in (("hf", "hf", 0), ("rand", "random", 1),
                                        ("bad", "hf", 9))
        ]
        cfg_path = write_config(tmp_path, repetition_counts=[101, 11], points=points)
        assert main(["run", "--config", str(cfg_path)]) == 0

        rows = read_rows(tmp_path / "scan.csv")
        assert [c for c in rows[0] if c.startswith("b_success_r")] == [
            "b_success_r101", "b_success_r11"]
        ok = [row for row in rows if not row["error"]]
        assert [row["label"] for row in ok] == ["hf", "rand"]
        assert len(calls) == len(ok)
        for row, (sv, spectra, cfg, target) in zip(ok, calls):
            for r in (101, 11):
                per_count = IpeaConfig(window=cfg.window, m=cfg.m, variant="B",
                                       repetitions_per_bit=r)
                assert float(row[f"b_success_r{r}"]) == original(
                    sv, spectra, per_count, target)

    def test_even_repetition_count_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, repetition_counts=[2])
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "odd" in capsys.readouterr().err

    def test_repetition_count_past_the_limit_rejected(self, tmp_path, capsys):
        # the majority tail of 1031 repetitions overflows float64
        cfg_path = write_config(tmp_path, repetition_counts=[3, 1031])
        assert main(["run", "--config", str(cfg_path)]) == 2
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--reps", "1031"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: repetition counts must be at most 1029, got 1031"] * 2
        assert not (tmp_path / "scan.csv").exists()

    def test_largest_repetition_count_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, repetition_counts=[1029])
        assert main(["run", "--config", str(cfg_path)]) == 0
        (row,) = read_rows(tmp_path / "scan.csv")
        assert row["error"] == ""
        assert 0.0 < float(row["b_success_r1029"]) <= 1.0

    @pytest.mark.parametrize("counts", [[11, 11], [31, 11, 51, 11]])
    def test_repeated_repetition_count_rejected(self, counts, tmp_path, capsys):
        cfg_path = write_config(tmp_path, repetition_counts=counts)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "repetition count 11 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_bits_beyond_float64_phase_rejected(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, ipea={"e_max": 1.0, "e_min": -1.5, "bits": 70, "seed": 7}
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "bits must be in 1..52" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_empty_repetition_counts_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, repetition_counts=[])
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "repetition_counts" in capsys.readouterr().err

    def test_empty_window_rejected(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, ipea={"e_max": -1.5, "e_min": -1.5, "bits": 12, "seed": 7}
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "empty window" in capsys.readouterr().err

    def test_whole_run_repeats_rejected(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            ipea={"e_max": 1.0, "e_min": -1.5, "bits": 12, "seed": 7,
                  "whole_run_repeats": 3},
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "whole_run_repeats" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "scan_config.json"
        cfg_path.write_text('{"ipea": {"e_max": 1.0,', encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value", MALFORMED_VALUES,
                             ids=[f"{'.'.join(map(str, w)) or 'top'}={json.dumps(v)}"
                                  for w, v in MALFORMED_VALUES])
    def test_wrongly_typed_value_exits_2(self, where, value, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, where, value)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("where, value, key", NON_INTEGRAL_VALUES,
                             ids=[f"{key}={json.dumps(v)}" for _, v, key in NON_INTEGRAL_VALUES])
    def test_non_integer_value_exits_2(self, where, value, key, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, where, value)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be an integer" in err and "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("where, value, key", NON_NUMBER_VALUES,
                             ids=[f"{key}={json.dumps(v)}" for _, v, key in NON_NUMBER_VALUES])
    def test_non_number_value_exits_2(self, where, value, key, tmp_path, capsys):
        (tmp_path / "guess.amp").write_text("1.0 1010\n", encoding="utf-8")
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, ("points", 0, "guess"), {"kind": "amplitudes", "path": "guess.amp"})
        replace_value(cfg_path, where, value)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} must be a number" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("where, value, key", BAD_VALUES,
                             ids=[f"{key}={json.dumps(v)}" for _, v, key in BAD_VALUES])
    def test_bad_value_exits_2(self, where, value, key, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, where, value)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and key in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("option, key", [("--seed", "ipea.seed"),
                                             ("--search-runs", "search_runs")])
    def test_negative_option_exits_2(self, option, key, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), option, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} must be non-negative" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_window_bound_beyond_float_range_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, ("ipea", "e_max"), 10**400)
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("e_max, e_min", [(1e308, -1e308), (float("inf"), -1.5)])
    def test_window_without_finite_width_exits_2(self, e_max, e_min, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, ipea={"e_max": e_max, "e_min": e_min, "bits": 8, "seed": 7}
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "no finite width" in err and "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()

    def test_missing_fcidump_rejected(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            points=[
                {
                    "label": "ghost",
                    "fcidump": "nowhere.fcidump",
                    "guess": {"kind": "hf"},
                    "sector": [1, 1],
                }
            ],
        )
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_fcidump_directory_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, ("points", 0, "fcidump"), ".")
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "points[0]: no such file" in err

    @pytest.mark.parametrize("option", ["--config", "--csv"])
    def test_unusable_path_exits_2(self, option, tmp_path, capsys):
        # a config that is a directory, or a CSV path that is one, raised an OSError
        cfg_path = write_config(tmp_path)
        argv = {"--config": str(cfg_path), option: str(tmp_path)}
        assert main(["run", *(token for pair in argv.items() for token in pair)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "directory" in err

    @pytest.mark.parametrize("where, value, error", [
        (("points", 0, "target"), 4, "KeyError"),
        (("points", 0, "target"), 10**30, "KeyError"),
        (("points", 0, "sector"), [1, 3], "ElectronCountExceedsOrbitals"),
        (("points", 0, "sector"), [10**30, 1], "ElectronCountExceedsOrbitals"),
    ])
    def test_point_past_the_file_is_typed_error_row(self, where, value, error, tmp_path):
        # a CSF guess in (1,1) keeps the guess valid; the target or sector
        # is past what the two-orbital file holds, which gave an IndexError
        # or OverflowError row
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, ("points", 0, "guess"), {"kind": "csf", "open_pair": [0, 1]})
        replace_value(cfg_path, where, value)
        assert main(["run", "--config", str(cfg_path)]) == 0
        (row,) = read_rows(tmp_path / "scan.csv")
        assert row["error"].startswith(f"{error}:")

    @pytest.mark.parametrize("amplitude", ["inf", "nan"])
    def test_non_finite_amplitude_is_error_row(self, amplitude, tmp_path):
        # inf gave an ok row of nan cells; nan was dropped silently
        (tmp_path / "guess.amp").write_text(f"1.0 0110\n{amplitude} 1010\n", encoding="utf-8")
        cfg_path = write_config(tmp_path)
        replace_value(cfg_path, ("points", 0, "guess"), {"kind": "amplitudes", "path": "guess.amp"})
        assert main(["run", "--config", str(cfg_path)]) == 0
        (row,) = read_rows(tmp_path / "scan.csv")
        assert row["error"].startswith("MalformedLine:") and "line 2" in row["error"]
        assert "nan" not in (tmp_path / "scan.csv").read_text()

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        import shutil

        shutil.copy(
            FIXTURES / "h2_sto3g_r1.4011.fcidump", tmp_path / "local.fcidump"
        )
        (tmp_path / "guesses").mkdir()
        (tmp_path / "guesses" / "hf.amp").write_text("1.0 1010\n", encoding="utf-8")
        cfg_path = write_config(
            tmp_path,
            points=[
                {
                    "label": "h2",
                    "fcidump": "local.fcidump",
                    "guess": {"kind": "hf"},
                    "sector": [1, 1],
                },
                {
                    "label": "h2_file",
                    "fcidump": "local.fcidump",
                    "guess": {"kind": "amplitudes", "path": "guesses/hf.amp"},
                    "sector": [1, 1],
                },
            ],
            outputs={"csv": "scan.csv", "json": "reports/scan.json"},
        )
        cfg = load_scan_config(cfg_path)
        assert cfg.points[0].fcidump == tmp_path / "local.fcidump"
        assert cfg.points[1].guess["path"] == str(tmp_path / "guesses" / "hf.amp")
        assert cfg.csv_path == tmp_path / "scan.csv"
        assert cfg.json_path == tmp_path / "reports" / "scan.json"
        assert main(["run", "--config", str(cfg_path)]) == 0
        rows = read_rows(tmp_path / "scan.csv")
        assert [r["fci_energy"] for r in rows] == [rows[0]["fci_energy"]] * 2
        assert (tmp_path / "reports" / "scan.json").exists()


class TestScalingCommand:
    def test_two_sizes(self, tmp_path, capsys):
        csv_path = tmp_path / "scaling.csv"
        json_path = tmp_path / "scaling.json"
        code = main(
            [
                "scaling",
                "--sizes",
                "4,8",
                "--seed",
                "3",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        rows = read_rows(csv_path)
        assert [int(r["n_basis"]) for r in rows] == [4, 8]
        assert int(rows[0]["fci_dim"]) == fci_dimension(2, 1, 1) == 4
        assert int(rows[1]["gate_total"]) > int(rows[0]["gate_total"])

        report = json.loads(json_path.read_text())
        validate(report, "scaling_report.schema.json")
        assert "fitted_exponent" in report
        assert "fitted exponent" in capsys.readouterr().out

    def test_single_size_has_no_fit(self, tmp_path):
        code = main(
            [
                "scaling",
                "--sizes",
                "6",
                "--csv",
                str(tmp_path / "s.csv"),
                "--json",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "s.json").read_text())
        validate(report, "scaling_report.schema.json")
        assert "fitted_exponent" not in report

    def test_odd_size_rejected(self, tmp_path, capsys):
        code = main(
            [
                "scaling",
                "--sizes",
                "5",
                "--csv",
                str(tmp_path / "s.csv"),
                "--json",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(["scaling", "--sizes", "4", "--seed", "-1", "--csv", str(csv_path),
                     "--json", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must be non-negative" in err
        assert not csv_path.exists()

    def test_repeated_size_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(["scaling", "--sizes", "4,4", "--csv", str(csv_path),
                     "--json", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "size 4 is repeated" in err
        assert not csv_path.exists()

    def test_size_over_budget_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = main(["scaling", "--sizes", "4,400", "--csv", str(csv_path),
                     "--json", str(tmp_path / "s.json")])
        assert code == 2
        assert "GiB" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_scaling_deterministic(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            csv_path = tmp_path / run / "scaling.csv"
            json_path = tmp_path / run / "scaling.json"
            assert (
                main(
                    [
                        "scaling",
                        "--sizes",
                        "4,6",
                        "--seed",
                        "11",
                        "--csv",
                        str(csv_path),
                        "--json",
                        str(json_path),
                    ]
                )
                == 0
            )
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0] == blobs[1]


# -- fuzz: every input runs or exits 2 ----------------------------------------

FUZZ_CONFIG = {
    "ipea": {"e_max": 1.0, "e_min": -1.5, "bits": 6, "seed": 7, "variant": "A",
             "repetitions_per_bit": 3},
    "repetition_counts": [1, 3],
    "points": [
        {"label": "hf", "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
         "guess": {"kind": "hf"}, "sector": [1, 1], "target": 0},
        {"label": "csf", "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
         "guess": {"kind": "csf", "core": [], "open_pair": [0, 1], "coupling": "singlet"},
         "sector": [1, 1], "target": 1},
        {"label": "amp", "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
         "guess": {"kind": "amplitudes", "path": "guess.amp", "threshold": 0.0},
         "sector": [1, 1]},
        {"label": "random", "fcidump": str(FIXTURES / "h2_sto3g_r1.4011.fcidump"),
         "guess": {"kind": "random"}, "sector": [1, 1]},
    ],
    "outputs": {"csv": "scan.csv", "json": "scan.json"},
}
FUZZ_VALUES = [None, True, False, "x", "", ".", -1, 0, 1, 3, 2.5, 1e308, -1e308, 10**30,
               float("nan"), float("inf"), [], [1], {}]
FUZZ_OPTIONS = ("--config", "--seed", "--variant", "--bits", "--emax", "--emin", "--reps",
                "--search-runs", "--csv", "--json")
FUZZ_ARGS = ["-1", "0", "1", "3", "2.5", "x", "", ".", "nan", "inf", "1e308", "1,3", "B"]
# failures that depend on the FCIDUMP or the guess file, so they become error
# rows of an otherwise finished scan; DimensionMismatch is a CSF orbital past the file
ROW_ERRORS = ("DimensionMismatch", "ElectronCountExceedsOrbitals", "EmptyAfterThreshold",
              "KeyError", "MalformedLine", "MissingSector", "OverlapWithCore", "ParseError",
              "SectorTooLarge")


def config_leaves(node, where=()):
    """Key paths of every scalar or empty container in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from config_leaves(value, (*where, key))
        else:
            yield (*where, key)


def scan_reports(work: Path):
    """The scan reports among the files in work, whatever their names."""
    for path in work.iterdir():
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if isinstance(report, dict) and report.get("schema") == cli.SCAN_SCHEMA_ID:
            yield report


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.just("config"), st.sampled_from(list(config_leaves(FUZZ_CONFIG))),
              st.sampled_from(FUZZ_VALUES)),
    st.tuples(st.just("argv"), st.sampled_from(FUZZ_OPTIONS), st.sampled_from(FUZZ_ARGS)),
))
def test_fuzz_runs_or_exits_2(tmp_path_factory, mutation):
    kind, where, value = mutation
    work = tmp_path_factory.mktemp("fuzz")
    (work / "guess.amp").write_text("0.8 0110\n-0.6 1010\n", encoding="utf-8")
    cfg_path = work / "scan_config.json"
    cfg_path.write_text(json.dumps(FUZZ_CONFIG), encoding="utf-8")
    options = {"--config": str(cfg_path), "--search-runs": "2"}
    if kind == "config":
        replace_value(cfg_path, where, value)
    else:
        options[where] = value
    argv = ["run", *(token for pair in options.items() for token in pair)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # relative --csv and --json values land in the work directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit for an unparsable option
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2), (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert sum("error:" in line for line in lines) == 1, lines
        return
    reports = list(scan_reports(work))
    assert reports
    for report in reports:
        for point in report["points"]:
            if point["status"] == "error":
                assert point["error"].split(":")[0] in ROW_ERRORS, point["error"]
            else:
                floats = [v for v in point.values() if isinstance(v, float)]
                floats += [*point["b_success"].values(), *point.get("search", {}).values()]
                assert all(math.isfinite(v) for v in floats), point
