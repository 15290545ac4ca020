"""Workload inputs and output checks.

Each workload is one ``qfci`` command line.  ``build`` writes its inputs
into a work directory and returns the argv plus a ``check`` that takes
the CSV and JSON text of one invocation and returns a list of problems
(empty when every output is correct).  Geometries are fixed; the master
seed passed with ``--seed`` sets the random guesses, the sampled runs
and the random integrals of ``scaling``.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hchain

H2_FIXTURE = hchain.H2_FIXTURE

# Frozen (1,1) ground energy of the H2 fixture, as in tests/conftest.py.
H2_FCI_ENERGY = -1.13726983728903
ENERGY_TOL = 1e-12
# c02 slack, as in tests/test_acceptance.py::test_c02
C02_LOW_SLACK = 1e-9
C02_HIGH_SLACK = 1e-12
B_CERTAIN = 1.0 - 1e-9

SCALING_SIZES = (4, 8, 12, 16, 20)
SCALING_GATE_TOTALS = (182, 4440, 28758, 108512, 305126)

# The B recursion's cost depends on each random guess; 31 of them per
# invocation (and a new master seed per invocation) average that out.
# 12 bits keep one invocation near 4 s.
H2_RANDOM_POINTS = 31
H2_BITS = 12
HCHAIN_CURVE = ((4, 1.4), (4, 1.9), (4, 2.4), (6, 1.4), (6, 1.9), (6, 2.4))
HCHAIN_SAMPLING = ((4, 1.4), (4, 2.4))
SEARCH_RUNS = 300
# Brackets every eigenvalue of the H4 and H6 (n/2, n/2) sectors above
# (-3.24 .. 4.74 Eh), so no populated eigenphase aliases.
HCHAIN_WINDOW = (5.0, -4.0)

COMMON_SPANS = (
    "cli.load_scan_config", "cli.run_scan",
    "integrals.parse_fcidump", "integrals.to_spin_orbitals",
    "hamiltonian.build_second_quantized", "hamiltonian.exact_eigensolve",
    "hamiltonian.eigh", "guess.hf_determinant", "guess.to_statevector",
    "phase_estimation.ipea_a_success_probability",
    "phase_estimation.ipea_b_success_probability", "phase_estimation.ipea_a_run",
    "propagator.controlled_u_power_exact",
    "statevector.apply_gate", "statevector.measure_qubit",
)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, Path]  # csv, json
    n_points: int
    check: Callable[[str, str], list[str]]
    expected_spans: tuple[str, ...]
    dominant: tuple[str, ...]  # span names expected to hold most of the CPU


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _scan_problems(csv_text: str, json_text: str, n_points: int) -> list[str]:
    """Checks every scan workload shares: all points ok, c02 holds."""
    rows = _rows(csv_text)
    problems = []
    if len(rows) != n_points:
        problems.append(f"expected {n_points} rows, got {len(rows)}")
    report = json.loads(json_text)
    for point in report.get("points", []):
        if point.get("status") != "ok":
            problems.append(f"{point.get('label')}: status {point.get('status')}: "
                            f"{point.get('error')}")
    for row in rows:
        if row.get("error"):
            problems.append(f"{row['label']}: error {row['error']}")
            continue
        w, p_tot = float(row["overlap_sq"]), float(row["p_tot"])
        if not (0.81 * w - C02_LOW_SLACK < p_tot <= w + C02_HIGH_SLACK):
            problems.append(f"{row['label']}: c02 fails, p_tot {p_tot!r}, overlap_sq {w!r}")
    return problems


def _scan_config(workdir: Path, points, bits: int, variant: str, reps, window) -> Path:
    config = {
        "ipea": {"e_max": window[0], "e_min": window[1], "bits": bits,
                 "variant": variant},
        "repetition_counts": list(reps),
        "points": points,
        "outputs": {"csv": "scan.csv", "json": "scan.json"},
    }
    path = workdir / "scan_config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def _chain_points(workdir: Path, geometries) -> tuple[list, dict]:
    hchain.check_against_fixture()
    points, e_rhf = [], {}
    for n, r in geometries:
        chain = hchain.hydrogen_chain(n, r)
        label = f"h{n}_r{r}"
        (workdir / f"{label}.fcidump").write_text(chain.fcidump)
        e_rhf[label] = chain.e_rhf
        points.append({"label": label, "fcidump": f"{label}.fcidump",
                       "guess": {"kind": "hf"}, "sector": [n // 2, n // 2]})
    return points, e_rhf


def check_h2_guesses(csv_text: str, json_text: str) -> list[str]:
    problems = _scan_problems(csv_text, json_text, 1 + H2_RANDOM_POINTS)
    for row in _rows(csv_text):
        if not row.get("error") and abs(float(row["fci_energy"]) - H2_FCI_ENERGY) > ENERGY_TOL:
            problems.append(f"{row['label']}: fci_energy {row['fci_energy']} "
                            f"!= {H2_FCI_ENERGY}")
    return problems


def make_check_hchain_curve(e_rhf: dict) -> Callable[[str, str], list[str]]:
    def check(csv_text: str, json_text: str) -> list[str]:
        problems = _scan_problems(csv_text, json_text, len(e_rhf))
        for row in _rows(csv_text):
            ref = e_rhf.get(row["label"])
            if ref is None:
                problems.append(f"unexpected row {row['label']}")
            elif not row.get("error") and not float(row["fci_energy"]) <= ref:
                problems.append(f"{row['label']}: fci_energy {row['fci_energy']} "
                                f"above RHF {ref!r}")
        return problems
    return check


def check_hchain_sampling(csv_text: str, json_text: str) -> list[str]:
    problems = _scan_problems(csv_text, json_text, len(HCHAIN_SAMPLING))
    for row in _rows(csv_text):
        if row.get("error"):
            continue
        step = (float(row["e_max"]) - float(row["e_min"])) / 2 ** int(row["bits"])
        if float(row["b_success_r101"]) > B_CERTAIN:
            miss = abs(float(row["sampled_energy"]) - float(row["fci_energy"]))
            if miss > step:
                problems.append(f"{row['label']}: sampled B energy off by {miss!r} "
                                f"> grid step {step!r}")
    searched = [p for p in json.loads(json_text).get("points", []) if "search" in p]
    if len(searched) != len(HCHAIN_SAMPLING):
        problems.append(f"search results for {len(searched)} points")
    return problems


def check_scaling(csv_text: str, json_text: str) -> list[str]:
    got = [(int(r["n_basis"]), int(r["gate_total"])) for r in _rows(csv_text)]
    want = list(zip(SCALING_SIZES, SCALING_GATE_TOTALS))
    if got != want:
        return [f"gate totals {got} != {want}"]
    return []


def build(name: str, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` into ``workdir``.

    The returned argv lacks ``--seed``; the caller appends the master seed
    of each invocation.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out = (workdir / "scan.csv", workdir / "scan.json")
    if name == "h2_guesses":
        points = [{"label": "hf", "fcidump": str(H2_FIXTURE),
                   "guess": {"kind": "hf"}, "sector": [1, 1]}]
        points += [{"label": f"random{i}", "fcidump": str(H2_FIXTURE),
                    "guess": {"kind": "random"}, "sector": [1, 1]}
                   for i in range(H2_RANDOM_POINTS)]
        config = _scan_config(workdir, points, H2_BITS, "A", (11, 31, 51, 101), (1.0, -1.5))
        return Workload(name, ("run", "--config", str(config)),
                        out, len(points), check_h2_guesses,
                        COMMON_SPANS + ("guess.random_sector_state",),
                        ("phase_estimation.ipea_b_success_probability",))
    if name == "hchain_curve":
        points, e_rhf = _chain_points(workdir, HCHAIN_CURVE)
        config = _scan_config(workdir, points, 20, "A", (51, 101), HCHAIN_WINDOW)
        return Workload(name, ("run", "--config", str(config)),
                        out, len(points), make_check_hchain_curve(e_rhf), COMMON_SPANS,
                        ("hamiltonian.exact_eigensolve",))
    if name == "hchain_sampling":
        points, _ = _chain_points(workdir, HCHAIN_SAMPLING)
        config = _scan_config(workdir, points, 20, "B", (101,), HCHAIN_WINDOW)
        return Workload(name, ("run", "--config", str(config),
                               "--search-runs", str(SEARCH_RUNS)),
                        out, len(points), check_hchain_sampling,
                        COMMON_SPANS + ("phase_estimation.ipea_b_run",),
                        ("propagator.controlled_u_power_exact", "statevector.apply_gate",
                         "statevector.measure_qubit"))
    if name == "scaling":
        out = (workdir / "scaling.csv", workdir / "scaling.json")
        return Workload(name, ("scaling", "--sizes", ",".join(map(str, SCALING_SIZES)),
                               "--csv", str(out[0]),
                               "--json", str(out[1])),
                        out, len(SCALING_SIZES), check_scaling,
                        ("cli.emit_scaling_report", "integrals.random_molecular_integrals",
                         "integrals.to_spin_orbitals", "hamiltonian.build_second_quantized",
                         "hamiltonian.jordan_wigner", "resources.count_controlled_u"),
                        ("hamiltonian.jordan_wigner",))
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("h2_guesses", "hchain_curve", "hchain_sampling", "scaling")
