"""Repeat the benchmark over seeds, report spreads, optionally record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace] \
        [--write perfbench/BASELINE.json]

For each workload and seed this runs ``run.py --trace 0`` for
``run_seconds`` from BENCHMARK.json and prints, per end-to-end metric,
the median, quartiles and spread (q3 - q1) / median next to a third of
the metric's bound.  ``--trace`` adds one traced run per workload (first
seed).  ``--write`` stores provenance, the workload reasons, the expected
layer/metric interactions and the measured figures as JSON.  Runs are
sequential; run nothing else heavy on the machine meanwhile.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Which per-layer metric should move which end-to-end metric, on which
# workload, and which workload bypasses the layer.
INTERACTIONS = [
    {"layer": "phase_estimation.ipea_b_success_probability.{busy_s,calls}, "
              "phase_estimation.b_histories_peak, phase_estimation.b_pruned_mass",
     "moves": ["wall_s", "cpu_s", "peak_rss_mib"], "on": ["h2_guesses"], "bypassed_by": ["scaling"]},
    {"layer": "hamiltonian.exact_eigensolve.{busy_s,wait_s} (self, excluding eigh), "
              "hamiltonian.eigh.busy_s, hamiltonian.sector_dim, hamiltonian.det_term_pairs",
     "moves": ["wall_s", "cpu_s"], "on": ["hchain_curve"], "bypassed_by": ["scaling", "h2_guesses"]},
    {"layer": "hamiltonian.jordan_wigner.busy_s, hamiltonian.pauli_strings, "
              "hamiltonian.build_second_quantized.busy_s, hamiltonian.terms",
     "moves": ["wall_s"], "on": ["scaling"], "bypassed_by": ["h2_guesses"]},
    {"layer": "propagator.controlled_u_power_exact.{busy_s,calls}, propagator.bytes_computed, "
              "statevector.{apply_gate,measure_qubit}.{busy_s,calls}, statevector.register_bytes, "
              "phase_estimation.{ipea_a_run,ipea_b_run}.busy_s (self)",
     "moves": ["wall_s"], "on": ["hchain_sampling"], "bypassed_by": ["scaling"]},
    {"layer": "integrals.{parse_fcidump,to_spin_orbitals,random_molecular_integrals}.busy_s, "
              "integrals.g_bytes",
     "moves": ["wall_s", "peak_rss_mib"], "on": ["scaling", "hchain_curve"], "bypassed_by": []},
    {"layer": "guess.{hf_determinant,random_sector_state,to_statevector}.busy_s",
     "moves": ["wall_s"], "on": ["h2_guesses"], "bypassed_by": ["scaling"]},
    {"layer": "resources.count_controlled_u.busy_s, resources.gate_total",
     "moves": ["wall_s"], "on": ["scaling"], "bypassed_by": ["h2_guesses", "hchain_curve",
                                                             "hchain_sampling"]},
    {"layer": "cli.load_scan_config.busy_s, cli.run_scan.self_busy_s, "
              "cli.emit_scaling_report.self_busy_s, cli.pool_concurrency, cli.trace_overhead",
     "moves": ["wall_s vs cpu_s"], "on": ["hchain_curve"], "bypassed_by": [],
     "note": "hchain_curve is the only workload where pool threads overlap BLAS work"},
]
# A workload's expected dominant layer is confirmed when its spans' self
# busy time is at least this share of the traced invocation's process CPU.
DOMINANT_SHARE = 0.5


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def blas_threads() -> int | None:
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def provenance(seeds: list[int]) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "machine": platform.machine(), "commit": commit, "seeds": seeds,
            "run_seconds": BENCH["run_seconds"]}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "target": bound / 3, "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    record = {"provenance": provenance(seeds),
              "workloads": {w["name"]: {"why": w["why"]} for w in BENCH["workloads"]
                            if w["name"] in names},
              "interactions": INTERACTIONS}
    for name in names:
        samples: dict[str, list[float]] = {m: [] for m in bounds}
        steal = []
        for seed in seeds:
            result, text = run(name, seed, 0)
            for metric in bounds:
                samples[metric].append(result["metrics"][metric]["value"])
            match = re.search(r"^host steal ([0-9.]+)", text, re.M)
            steal.append(float(match.group(1)) if match else None)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v[-1]:.4g}" for m, v in samples.items()) + f", steal {steal[-1]}",
                flush=True)
        entry = record["workloads"][name]
        entry["host_steal"] = steal
        if len(seeds) >= 2:
            entry["end_to_end"] = {m: summarize(v, bounds[m]) for m, v in samples.items()}
            for m, s in entry["end_to_end"].items():
                print(f"  {name:<16} {m:<13} median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  target < {s['target']:.4f}  {'ok' if s['steady'] else 'WIDE'}",
                      flush=True)
        if args.trace:
            result, text = run(name, seeds[0], 1)
            match = re.search(r"^dominant (\S+): .*, ([0-9.]+) of the invocation", text, re.M)
            share = float(match.group(2))
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()
                                  if v["value"]}
            entry["dominant"] = {"expected": match.group(1), "share_of_cpu": share,
                                 "threshold": DOMINANT_SHARE,
                                 "verdict": "confirmed" if share >= DOMINANT_SHARE
                                 else "refuted"}
            print(f"  {name}: dominant {match.group(1)} share {share:.3f} -> "
                  f"{entry['dominant']['verdict']}", flush=True)
    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
