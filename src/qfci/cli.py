"""Batch driver: scan FCIDUMP series with IPEA, emit CSV/JSON curves.

Subcommands:
  run      execute a scan described by a JSON config file
  scaling  gate-count / FCI-dimension scaling table on random tensors

Scan CSV layout is one row per scan point; variant-B success
probabilities occupy one b_success_r<N> column per configured
repetition count.  All stochastic columns derive from a master seed, so
replaying a scan reproduces the files byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import QfciError
from .guess import (
    GuessState,
    hf_determinant,
    load_amplitude_guess,
    open_shell_csf,
    random_sector_state,
)
from .hamiltonian import (
    build_second_quantized,
    exact_eigensolve,
    jordan_wigner,
)
from .integrals import (
    parse_fcidump,
    random_molecular_integrals,
    to_spin_orbitals,
)
from .phase_estimation import (
    IpeaConfig,
    _decompose,
    _pair_index,
    ipea_a_run,
    ipea_a_success_probability,
    ipea_b_run,
    ipea_b_success_probability,
)
from .propagator import EvolutionWindow
from .resources import count_controlled_u, fci_dimension, fitted_exponent

SCAN_SCHEMA_ID = "qfci.scan_report.v1"
SCALING_SCHEMA_ID = "qfci.scaling_report.v1"
SEARCH_CAVEAT = (
    "lowest-energy search assumes the window brackets every eigenvalue; "
    "energies outside [E_min, E_max] alias back into the window and can "
    "masquerade as low results"
)
# `qfci run` options that override fields of the config file
OVERRIDE_KEYS = ("seed", "variant", "bits", "e_max", "e_min", "repetition_counts",
                 "csv", "json")
# eigen-weight above which an eigenvalue counts as populated by the guess
POPULATED_TOL = 1e-12
# largest repetition count a config may ask for.  A count comes from outside
# the program and a JSON integer has no upper bound, while a scan point's
# majority tails take one pass up to its largest count: 0.15-0.31 s per
# point at 100001 and 12-19 ms at 10001 (m = 12-52, 2 vCPUs, numpy 2.4).
MAX_REPETITIONS = 100001


@dataclass(frozen=True)
class ScanPoint:
    label: str
    fcidump: Path
    guess: dict
    sector: tuple[int, int]
    target: int


@dataclass(frozen=True)
class ScanConfig:
    points: tuple[ScanPoint, ...]
    ipea: IpeaConfig
    repetition_counts: tuple[int, ...]
    csv_path: Path
    json_path: Path
    master_seed: int | None


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise QfciError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _integer(value, key: str) -> int:
    """value if it is a JSON integer; TypeError naming key for a bool, float or other."""
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _count(value, key: str) -> int:
    """value if it is a non-negative JSON integer; QfciError naming key for a negative one."""
    if _integer(value, key) < 0:
        raise QfciError(f"{key} must be non-negative, got {value!r}")
    return value


def _integers(value, key: str, count: int | None = None) -> tuple[int, ...]:
    """value as a tuple if it is a JSON list of non-negative integers, of count
    of them given count."""
    if type(value) is not list or count not in (None, len(value)):
        what = "integers" if count is None else f"{count} integers"
        raise TypeError(f"{key} must be a list of {what}, got {value!r}")
    return tuple(_count(v, key) for v in value)


def _number(value, key: str) -> float:
    """value as a float if it is a JSON number; TypeError naming key for a bool, string or other."""
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _repetition_count(value, key: str) -> int:
    """value if it is an odd JSON integer in 1..MAX_REPETITIONS, else an error naming key."""
    if not (1 <= _integer(value, key) <= MAX_REPETITIONS and value % 2):
        raise QfciError(f"{key} must be odd and in 1..{MAX_REPETITIONS}, got {value!r}")
    return value


def _resolve(base: Path, value, where: str | None = None) -> Path:
    """value as a path, a relative one against base; given where, QfciError
    naming it unless that is a file."""
    path = base / Path(value)
    if where is not None and not path.is_file():
        raise QfciError(f"{where}: no such file {path}")
    return path


def load_scan_config(path: str | Path, overrides: dict | None = None) -> ScanConfig:
    """Read a JSON scan description; overrides replace ipea-level fields.

    Relative paths inside the file resolve against the file's directory.
    A value of the wrong type or out of range raises QfciError naming the
    file.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise QfciError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return _parse_scan_config(raw, path, overrides or {})
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise QfciError(f"{path}: {exc}") from exc


def _parse_scan_config(raw, path: Path, overrides: dict) -> ScanConfig:
    base = path.parent
    ipea_raw = dict(_require(raw, "ipea", str(path)))
    bits = _integer(overrides.get("bits", ipea_raw.get("bits", 20)), "ipea.bits")
    variant = str(overrides.get("variant", ipea_raw.get("variant", "A")))
    e_max = _number(overrides.get("e_max", _require(ipea_raw, "e_max", "ipea")), "ipea.e_max")
    e_min = _number(overrides.get("e_min", _require(ipea_raw, "e_min", "ipea")), "ipea.e_min")
    seed = overrides.get("seed", ipea_raw.get("seed"))
    seed = None if seed is None else _count(seed, "ipea.seed")
    reps_list = tuple(
        _repetition_count(r, "repetition_counts") for r in overrides.get(
            "repetition_counts", raw.get("repetition_counts", [11, 31, 51, 101])
        )
    )
    if not reps_list:
        raise QfciError("repetition_counts must not be empty")
    for i, r in enumerate(reps_list):
        if r in reps_list[:i]:
            raise QfciError(f"repetition count {r} is repeated")
    repeats = ipea_raw.get("whole_run_repeats", 1)
    if repeats != 1:
        raise QfciError(
            f"ipea.whole_run_repeats: a scan runs each point once, got {repeats!r}"
        )
    cfg = IpeaConfig(
        window=EvolutionWindow(e_max=e_max, e_min=e_min),
        m=bits,
        variant=variant,
        repetitions_per_bit=_repetition_count(ipea_raw.get("repetitions_per_bit", reps_list[0]),
                                              "ipea.repetitions_per_bit"),
    )

    outputs = raw.get("outputs", {})
    csv_path = _resolve(base, overrides.get("csv", outputs.get("csv", "scan.csv")))
    json_path = _resolve(base, overrides.get("json", outputs.get("json", "scan.json")))

    points = []
    for i, entry in enumerate(raw.get("points", [])):
        where = f"points[{i}]"
        fcidump = _resolve(base, _require(entry, "fcidump", where), where)
        guess = dict(_require(entry, "guess", where))
        kind = guess.setdefault("kind", "hf")
        if kind not in ("hf", "csf", "amplitudes", "random"):
            raise QfciError(f"{where}.guess.kind must be hf, csf, amplitudes or random, "
                            f"got {kind!r}")
        if kind == "amplitudes":
            guess["path"] = str(_resolve(base, _require(guess, "path", f"{where}.guess"), where))
            guess["threshold"] = _number(guess.get("threshold", 0.0), f"{where}.guess.threshold")
        if kind == "csf":
            guess["core"] = _integers(guess.get("core", []), f"{where}.guess.core")
            guess["open_pair"] = _integers(_require(guess, "open_pair", f"{where}.guess"),
                                           f"{where}.guess.open_pair", 2)
            if guess["open_pair"][0] == guess["open_pair"][1]:
                raise QfciError(f"{where}.guess.open_pair must name two different orbitals")
            if guess.setdefault("coupling", "singlet") not in ("singlet", "triplet"):
                raise QfciError(f"{where}.guess.coupling must be singlet or triplet, "
                                f"got {guess['coupling']!r}")
        points.append(
            ScanPoint(
                label=str(entry.get("label", f"point{i}")),
                fcidump=fcidump,
                guess=guess,
                sector=_integers(_require(entry, "sector", where), f"{where}.sector", 2),
                target=_count(entry.get("target", 0), f"{where}.target"),
            )
        )

    return ScanConfig(
        points=tuple(points),
        ipea=cfg,
        repetition_counts=reps_list,
        csv_path=csv_path,
        json_path=json_path,
        master_seed=seed,
    )


def _build_guess(desc: dict, mol, sector, rng) -> GuessState:
    """The guess a parsed description (_parse_scan_config) names."""
    kind = desc["kind"]
    if kind == "hf":
        return hf_determinant(mol.n_orb, sector[0], sector[1])
    if kind == "csf":
        return open_shell_csf(mol.n_orb, desc["core"], desc["open_pair"], desc["coupling"])
    if kind == "amplitudes":
        return load_amplitude_guess(desc["path"], threshold=desc["threshold"])
    return random_sector_state(mol.n_orb, sector, rng)


class _LastHamiltonian:
    """Integrals, fermion terms and sector spectra of the latest FCIDUMP.

    Consecutive scan points that share a file reuse them; a new path
    replaces them, so at most one Hamiltonian is held.
    """

    path = None

    def load(self, path: Path):
        """(molecule, spin-orbital integrals) of the file at path."""
        if path != self.path:
            # drop the previous Hamiltonian before building the next one
            self.path = self.mol = self.soi = self.terms = None
            self.spectra: dict = {}
            self.mol = parse_fcidump(path)
            self.soi = to_spin_orbitals(self.mol)
            self.terms = build_second_quantized(self.soi)
            self.path = path
        return self.mol, self.soi

    def spectrum(self, sector: tuple[int, int]):
        if sector not in self.spectra:
            self.spectra[sector] = exact_eigensolve(
                self.terms, self.soi.n_so, sector
            )
        return self.spectra[sector]


def _window_warning(label: str, weights: np.ndarray, energies: np.ndarray,
                    window: EvolutionWindow) -> str | None:
    """Name the populated eigenvalue farthest outside (e_min, e_max], if any."""
    outside = [(max(e - window.e_max, window.e_min - e), e)
               for e in energies[weights > POPULATED_TOL].tolist()
               if not window.e_min < e <= window.e_max]
    if not outside:
        return None
    margin, energy = max(outside)
    return (
        f"{label}: populated eigenvalue {energy:.10g} lies {margin:.3g} outside "
        f"the window ({window.e_min:g}, {window.e_max:g}]; {len(outside)} "
        f"populated eigenvalue(s) outside it alias into the window"
    )


def _evaluate_point(
    point: ScanPoint,
    hamiltonian: _LastHamiltonian,
    cfg: IpeaConfig,
    reps_list: tuple[int, ...],
    seed_seq: np.random.SeedSequence,
    search_runs: int,
) -> tuple[dict, list[str]]:
    """Full per-point pipeline; exceptions become an error record."""
    warnings: list[str] = []
    try:
        rng = np.random.default_rng(seed_seq)
        mol, soi = hamiltonian.load(point.fcidump)
        na, nb = point.sector
        if mol.n_elec != na + nb:
            warnings.append(
                f"{point.label}: file electron count {mol.n_elec} "
                f"differs from sector {na}+{nb}"
            )
        guess = _build_guess(point.guess, mol, point.sector, rng)
        if guess.n_qubits != soi.n_so:
            raise QfciError(
                f"guess spans {guess.n_qubits} qubits but system has {soi.n_so}"
            )
        sv = guess.to_statevector()

        sectors = sorted(guess.sectors | {point.sector})
        spectra = [hamiltonian.spectrum(s) for s in sectors]
        block = sectors.index(point.sector)
        target = (block, point.target)
        weights, _, energies = _decompose(sv.amplitudes, spectra, cfg.window)
        outside = _window_warning(point.label, weights, energies, cfg.window)
        if outside:
            warnings.append(outside)

        overlap_sq = float(weights[_pair_index(spectra, target)])  # KeyError past the sector
        fci_energy = float(spectra[block].eigenvalues[point.target])

        p_down, p_up = ipea_a_success_probability(sv, spectra, cfg, target)
        b_success = ipea_b_success_probability(
            sv, spectra, cfg, target, repetition_counts=reps_list
        )

        memo: dict = {}  # one (guess, spectra, cfg): shared by the point's variant-A runs
        if cfg.variant == "A":
            record, _ = ipea_a_run(sv, spectra, cfg, rng, memo=memo)
        else:
            record = ipea_b_run(sv, spectra, cfg, rng)

        result = {
            "label": point.label,
            "fcidump": str(point.fcidump),
            "n_alpha": na,
            "n_beta": nb,
            "target": point.target,
            "status": "ok",
            "fci_energy": fci_energy,
            "overlap_sq": overlap_sq,
            "overlap_scaled": 0.81 * overlap_sq,
            "p_down": p_down,
            "p_up": p_up,
            "p_tot": p_down + p_up,
            "b_success": {str(r): p for r, p in zip(reps_list, b_success)},
            "sampled_energy": record.energy,
            "sampled_outcome": record.bits.outcome,
        }
        if search_runs > 0:
            energies = [
                ipea_a_run(sv, spectra, cfg, rng, memo=memo)[0].energy
                for _ in range(search_runs)
            ]
            lowest = min(energies)
            result["search"] = {
                "runs": search_runs,
                "min_energy": lowest,
                "multiplicity": sum(1 for e in energies if e == lowest),
            }
        return result, warnings
    except Exception as exc:  # per-point isolation: scan must not abort
        return (
            {
                "label": point.label,
                "fcidump": str(point.fcidump),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            },
            warnings,
        )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_report(report: dict, csv_path: Path, json_path: Path, header, rows) -> None:
    """Write the CSV table (header, then rows) and the report as indented,
    key-sorted JSON with a trailing newline, creating parent directories."""
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_scan(cfg: ScanConfig, search_runs: int = 0) -> dict:
    """Evaluate all points, write CSV + JSON sidecar, return the report."""
    _count(search_runs, "search_runs")
    seeds = np.random.SeedSequence(cfg.master_seed).spawn(max(1, len(cfg.points)))
    hamiltonian = _LastHamiltonian()
    outcomes = [
        _evaluate_point(
            point, hamiltonian, cfg.ipea, cfg.repetition_counts, seed_seq, search_runs
        )
        for point, seed_seq in zip(cfg.points, seeds)
    ]
    points = [row for row, _ in outcomes]
    warnings = [w for _, ws in outcomes for w in ws]

    report = {
        "schema": SCAN_SCHEMA_ID,
        "master_seed": cfg.master_seed,
        "bits": cfg.ipea.m,
        "variant": cfg.ipea.variant,
        "window": {"e_max": cfg.ipea.window.e_max, "e_min": cfg.ipea.window.e_min},
        "repetition_counts": list(cfg.repetition_counts),
        "warnings": warnings,
        "points": points,
    }
    if search_runs > 0:
        report["search_caveat"] = SEARCH_CAVEAT

    # every row repeats the run settings; an error row leaves its result cells empty
    settings = {"variant": cfg.ipea.variant, "bits": cfg.ipea.m,
                "e_max": cfg.ipea.window.e_max, "e_min": cfg.ipea.window.e_min}
    header = [
        "label",
        "fcidump",
        "n_alpha",
        "n_beta",
        "target",
        *settings,
        "fci_energy",
        "overlap_sq",
        "overlap_scaled",
        "p_down",
        "p_up",
        "p_tot",
        *[f"b_success_r{r}" for r in cfg.repetition_counts],
        "sampled_energy",
        "error",
    ]
    rows = []
    for point in points:
        cells = {**point, **settings,
                 **{f"b_success_r{r}": p for r, p in point.get("b_success", {}).items()}}
        rows.append([_fmt(cells[k]) if k in cells else "" for k in header])
    _write_report(report, cfg.csv_path, cfg.json_path, header, rows)
    return report


def emit_scaling_report(
    sizes,
    seed: int,
    csv_path: Path,
    json_path: Path,
) -> dict:
    """Gate counts and FCI dimension vs spin-orbital count on random tensors."""
    _count(seed, "seed")
    rows = []
    for i, n_so in enumerate(sizes):
        if n_so < 2 or n_so % 2:
            raise QfciError(f"sizes must be even spin-orbital counts, got {n_so}")
        if n_so in sizes[:i]:
            raise QfciError(f"size {n_so} is repeated")
        n_orb = n_so // 2
        rng = np.random.default_rng(np.random.SeedSequence((seed, n_so)))
        mol = random_molecular_integrals(n_orb, rng)
        op = jordan_wigner(build_second_quantized(to_spin_orbitals(mol)), n_so)
        counts = count_controlled_u(op)
        n_alpha = (n_orb + 1) // 2
        n_beta = n_orb // 2
        rows.append(
            {
                "n_basis": n_so,
                "fci_dim": fci_dimension(n_orb, n_alpha, n_beta),
                "counts": counts.as_dict(),
            }
        )

    report: dict = {
        "schema": SCALING_SCHEMA_ID,
        "seed": seed,
        "points": rows,
    }
    if len(rows) >= 2:
        report["fitted_exponent"] = fitted_exponent(
            [r["n_basis"] for r in rows],
            [r["counts"]["total"] for r in rows],
        )

    gates = ("hadamard", "cnot", "rx", "rz", "controlled_rz", "total")
    _write_report(report, csv_path, json_path,
                  ["n_basis", "fci_dim", *gates[:-1], "gate_total"],
                  [[r["n_basis"], r["fci_dim"], *(r["counts"][g] for g in gates)]
                   for r in rows])
    return report


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfci",
        description="Iterative phase estimation for full-CI energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scan config")
    run_p.add_argument("--config", required=True, help="JSON scan description")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--variant", choices=["A", "B"])
    run_p.add_argument("--bits", type=int, help="phase bits m")
    run_p.add_argument("--emax", dest="e_max", metavar="EMAX", type=float)
    run_p.add_argument("--emin", dest="e_min", metavar="EMIN", type=float)
    run_p.add_argument("--reps", dest="repetition_counts", metavar="REPS", type=_int_list,
                       help="comma-separated odd repetition counts")
    run_p.add_argument("--search-runs", type=int, default=0,
                       help="variant-A lowest-energy search over N runs")
    run_p.add_argument("--csv", help="override CSV output path")
    run_p.add_argument("--json", help="override JSON output path")

    scal_p = sub.add_parser("scaling", help="gate-count scaling table")
    scal_p.add_argument("--sizes", type=_int_list, required=True,
                        help="even spin-orbital counts, e.g. 4,8,12")
    scal_p.add_argument("--seed", type=int, default=0)
    scal_p.add_argument("--csv", default="scaling.csv")
    scal_p.add_argument("--json", default="scaling.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {key: getattr(args, key) for key in OVERRIDE_KEYS
                         if getattr(args, key) is not None}
            cfg = load_scan_config(args.config, overrides)
            report = run_scan(cfg, search_runs=args.search_runs)
            n_err = sum(1 for p in report["points"] if p["status"] == "error")
            print(
                f"scan: {len(report['points'])} points, {n_err} failed -> "
                f"{cfg.csv_path}"
            )
            if args.search_runs > 0:
                print(f"search caveat: {SEARCH_CAVEAT}")
                for p in report["points"]:
                    if "search" in p:
                        s = p["search"]
                        print(
                            f"  {p['label']}: min energy {s['min_energy']:.10f} "
                            f"({s['multiplicity']}/{s['runs']} runs)"
                        )
            for w in report["warnings"]:
                print(f"warning: {w}", file=sys.stderr)
        elif args.command == "scaling":
            report = emit_scaling_report(
                args.sizes, args.seed, Path(args.csv), Path(args.json)
            )
            if "fitted_exponent" in report:
                print(f"fitted exponent: {report['fitted_exponent']:.3f}")
            print(f"scaling: {len(report['points'])} sizes -> {args.csv}")
    except (QfciError, OSError) as exc:  # OSError: a config or output path unusable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
