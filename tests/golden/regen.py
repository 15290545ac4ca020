"""Golden outputs of `qfci run` and `qfci scaling`, and the script that rewrites them.

Each case is one command line; its CSV and JSON are kept here as
`<case>.csv` and `<case>.json`, with every `fcidump` path cut to its file
name.  `compare` checks a rerun against them: non-float cells and the
sampled cells (`sampled_energy`, `sampled_outcome`, everything under
`search`) exactly, every other float to 1e-12.

Usage from the repository root, after a change that moves outputs on
purpose:

    PYTHONPATH=src python tests/golden/regen.py [case ...]

rewrites the files of the named cases (all of them when none is named)
and prints the largest move per column.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
H2_CONFIG = HERE / "h2_scan.json"
H4_CONFIG = HERE / "h4_scan.json"
CASES = {
    "h2_A": ("run", "--config", str(H2_CONFIG), "--variant", "A", "--search-runs", "5"),
    "h2_B": ("run", "--config", str(H2_CONFIG), "--variant", "B"),
    "h4": ("run", "--config", str(H4_CONFIG)),
    "h4_search": ("run", "--config", str(H4_CONFIG), "--variant", "B", "--bits", "20",
                  "--search-runs", "300"),
    "scaling": ("scaling", "--sizes", "4,6,8"),
}
FLOAT_TOL = 1e-12
# cells drawn from the random stream: any move is a changed sample
SAMPLED = {"sampled_energy", "sampled_outcome", "search"}


def run(case: str, workdir: Path) -> tuple[str, str]:
    """(CSV text, JSON text) of one case, run in workdir, fcidump paths masked."""
    from qfci.cli import main

    csv_path, json_path = workdir / f"{case}.csv", workdir / f"{case}.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*CASES[case], "--csv", str(csv_path), "--json", str(json_path)])
    if code != 0:
        raise RuntimeError(f"{case}: exit code {code}")
    rows = list(csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8"), newline="")))
    if "fcidump" in rows[0]:
        col = rows[0].index("fcidump")
        for row in rows[1:]:
            row[col] = Path(row[col]).name
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    report = json.loads(json_path.read_text(encoding="utf-8"))
    for point in report.get("points", []):
        if "fcidump" in point:
            point["fcidump"] = Path(point["fcidump"]).name
    return out.getvalue(), json.dumps(report, indent=2, sort_keys=True) + "\n"


def _csv_cells(text: str):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = rows[0]
    yield "header", tuple(header)
    yield "rows", len(rows)
    for row in rows[1:]:
        for name, cell in zip(header, row):
            yield name, _number(cell)


def _number(cell: str):
    """cell as an int or float if it reads as one, else the string."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _json_cells(value, path: tuple[str, ...] = ()):
    """(dotted key path, leaf) pairs; list positions add no key, lengths are leaves."""
    if isinstance(value, dict):
        yield ".".join(path + ("keys",)), tuple(sorted(value))
        for key in sorted(value):
            yield from _json_cells(value[key], path + (key,))
    elif isinstance(value, list):
        yield ".".join(path + ("len",)), len(value)
        for item in value:
            yield from _json_cells(item, path)
    else:
        yield ".".join(path), value


def cell_pairs(case: str, csv_text: str, json_text: str):
    """(file, column, golden, new) for every cell of the case, in file order.

    A structural difference (header, row count, JSON keys or lengths)
    shows as a pair of differing tuples or ints; zip stops at the shorter
    file, whose length pair already differs.
    """
    golden_csv = (HERE / f"{case}.csv").read_text(encoding="utf-8")
    golden_json = json.loads((HERE / f"{case}.json").read_text(encoding="utf-8"))
    for (col, old), (_, new) in zip(_csv_cells(golden_csv), _csv_cells(csv_text)):
        yield f"{case}.csv", col, old, new
    for (col, old), (_, new) in zip(_json_cells(golden_json),
                                    _json_cells(json.loads(json_text))):
        yield f"{case}.json", col, old, new


def _float_pair(old, new) -> bool:
    """Both are numbers and one is a float (a float CSV cell may print as an integer)."""
    kinds = {type(old), type(new)}
    return kinds <= {int, float} and float in kinds


def compare(case: str, csv_text: str, json_text: str) -> list[str]:
    """One line per cell of the rerun that differs from the golden files."""
    problems = []
    for name, col, old, new in cell_pairs(case, csv_text, json_text):
        sampled = SAMPLED & set(col.split("."))
        if _float_pair(old, new) and not sampled:
            if math.isclose(old, new, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
                continue
        elif old == new and type(old) is type(new):
            continue
        problems.append(f"{name} {col}: golden {old!r}, now {new!r}")
    return problems


def main(cases: list[str]) -> int:
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(CASES)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases or CASES:
            csv_text, json_text = run(case, Path(tmp))
            if (HERE / f"{case}.csv").exists() and (HERE / f"{case}.json").exists():
                moves: dict[tuple[str, str], float | str] = {}
                for name, col, old, new in cell_pairs(case, csv_text, json_text):
                    prev = moves.get((name, col), 0.0)
                    if _float_pair(old, new) and not isinstance(prev, str):
                        moves[(name, col)] = max(prev, abs(new - old))
                    elif old != new or type(old) is not type(new):
                        moves[(name, col)] = "changed"
                for (name, col), move in moves.items():
                    shown = move if isinstance(move, str) else f"{move:.3g}"
                    print(f"{name} {col}: {shown}")
            else:
                print(f"{case}: new")
            (HERE / f"{case}.csv").write_text(csv_text, encoding="utf-8", newline="")
            (HERE / f"{case}.json").write_text(json_text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
