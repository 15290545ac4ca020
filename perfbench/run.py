"""qfci benchmark: one run of one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a qfci source checkout; the package is imported
from its ``src/``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (wall_s, cpu_s, peak_rss_mib, setup_s); with
``--trace 1`` the per-layer metrics of ``layers.PER_LAYER``.  A failed
output check, an invocation that raises or exits non-zero, or a missing
span makes the run exit 1 with ``"correct": false`` and no metric.
Workloads and checks are in ``workloads.py``; the measuring process in
``child.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REQUIRED = (
    SRC / "qfci" / "cli.py",
    workloads.H2_FIXTURE,
    ROOT / "tests" / "fixtures" / "gen_h2_sto3g.py",
)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def setup_times(n: int) -> list[float]:
    """Seconds from starting a fresh interpreter until qfci.cli is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import time, qfci.cli; print(repr(time.time()))"]

    def once() -> float:
        t0 = time.time()
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        return float(out.stdout.split()[-1]) - t0

    once()  # writes bytecode caches; not counted
    return [once() for _ in range(n)]


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def describe(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    text = f"{name:<14} median {statistics.median(values):.6g} {unit}  n={n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f"  q1 {q1:.6g}  q3 {q3:.6g}"
    # a tail percentile is shown only with ten samples beyond it
    text += f"  p90 {statistics.quantiles(values, n=10)[-1]:.6g}" if n >= 100 else "  (no p90: n<100)"
    return text


def run_child(args, workdir: Path, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a qfci checkout, missing {missing}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    ticks = cpu_ticks()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = [] if args.trace else setup_times(SETUP_SAMPLES)
        result = run_child(args, workdir, TIME_LIMIT_S - (time.perf_counter() - start))
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass

    end_ticks = cpu_ticks()
    if ticks and end_ticks and end_ticks[1] > ticks[1]:
        # a virtual machine's stolen CPU time inflates wall times; shown to judge noise
        print(f"host steal {(end_ticks[0] - ticks[0]) / (end_ticks[1] - ticks[1]):.4f} "
              f"of all CPU time during the run")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['wall']) + len(result.get('traced_wall', []))} timed invocations "
          f"after 1 warm-up; {attempted} scan points attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}")
    if failed or result["problems"]:
        for problem in result["problems"]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        spans = result["spans"]
        cpu = sum(row["self_busy"] for row in spans.values())
        print(f"{'span (last traced invocation)':<46} {'calls':>7} {'self busy s':>12} "
              f"{'self wait s':>12} {'busy share':>10}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_busy"]):
            print(f"{name:<46} {int(row['calls']):>7} {row['self_busy']:>12.6f} "
                  f"{row['self_wait']:>12.6f} {row['self_busy'] / cpu:>10.3f}")
        dom = result["dominant"]
        print(f"dominant {'+'.join(dom['spans'])}: {dom['self_busy_s']:.6g} s self busy, "
              f"{dom['share_of_cpu']:.3f} of the invocation's process CPU")
        print(describe("traced wall_s", result["traced_wall"], "s"))
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        samples = {"wall_s": result["wall"], "cpu_s": result["cpu"], "setup_s": setup}
        for name, values in samples.items():
            print(describe(name, values, END_TO_END_UNITS[name]))
        print(f"peak_rss_mib   {result['peak_rss_mib']:.6g} MiB (whole measuring process)")
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mib"] = result["peak_rss_mib"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
