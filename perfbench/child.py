"""Measuring process for one workload run (started by run.py).

    python3 perfbench/child.py <workload> <seed> <seconds> <trace 0|1> <workdir>

Builds the workload's inputs, then calls ``qfci.cli.main(argv)`` in
process until about ``seconds`` have passed; the first invocation is a
warm-up that is checked but not timed.  Timed invocation i uses master
seed ``seed * 1000 + i``, so the first repeats the warm-up's seed and
seed-dependent cost is averaged over the run.  With trace 1, each seed
runs untraced and then traced.  Every invocation's CSV and JSON are
checked, and compared byte for byte with any earlier invocation of the
same seed.  Prints one JSON object with the samples
on stdout.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class Runner:
    def __init__(self, workload: workloads.Workload, cli):
        self.wl = workload
        self.cli = cli
        self.reference: dict[int, tuple[bytes, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, seed: int, tracer: Tracer | None = None) -> tuple[float, float]:
        """One CLI invocation; returns (wall, cpu) and records its checks."""
        for path in self.wl.outputs:
            path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.reset()
            tracer.install(layers.TARGETS)
        sink = io.StringIO()
        error = None
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main([*self.wl.argv, "--seed", str(seed)])
            if code != 0:
                error = f"exit code {code}: {sink.getvalue().strip()}"
        except Exception as exc:  # an invocation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        self.attempted += self.wl.n_points
        found = [error] if error else self._check(seed)
        if found:
            self.failed += self.wl.n_points
            self.problems += [f"{self.wl.name}: {p}" for p in found]
        return wall, cpu

    def _check(self, seed: int) -> list[str]:
        try:
            texts = tuple(p.read_bytes() for p in self.wl.outputs)
        except OSError as exc:
            return [f"output missing: {exc}"]
        found = self.wl.check(*(t.decode("utf-8") for t in texts))
        if self.reference.setdefault(seed, texts) != texts:
            found.append(f"CSV/JSON differ between invocations with seed {seed}")
        return found


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import qfci.cli

    if Path(qfci.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qfci imported from {qfci.cli.__file__}, not {SRC}")
    wl = workloads.build(name, workdir)
    runner = Runner(wl, qfci.cli)
    tracer = Tracer(spawners=layers.SPAWNERS) if trace else None
    walls, cpus, traced_walls, traced_cpus, rows = [], [], [], [], []
    last_summary: dict = {}

    deadline = time.perf_counter() + seconds
    wall, _ = runner.invoke(seed * 1000)  # warm-up: checked, not timed
    for i in itertools.count():
        if runner.problems:
            break
        # with trace, each seed runs untraced and then traced
        traced_next = trace and i % 2 == 1
        sub_seed = seed * 1000 + (i // 2 if trace else i)
        if traced_next:
            wall, cpu = runner.invoke(sub_seed, tracer)
            tracer.require(wl.expected_spans)
            traced_walls.append(wall)
            traced_cpus.append(cpu)
            rows.append(layers.layer_metrics(tracer))
            last_summary = tracer.summary()
        else:
            wall, cpu = runner.invoke(sub_seed)
            walls.append(wall)
            cpus.append(cpu)
        # stop when the next invocation would end more than half of it late
        if time.perf_counter() + wall / 2 >= deadline and walls and (not trace or traced_walls):
            break

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "wall": walls,
        "cpu": cpus,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace and traced_walls:
        layer = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        layer["cli.trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        dominant = sum(last_summary.get(s, {}).get("self_busy", 0.0) for s in wl.dominant)
        result |= {
            "traced_wall": traced_walls,
            "layers": layer,
            "spans": last_summary,
            "dominant": {"spans": list(wl.dominant),
                         "self_busy_s": dominant,
                         "share_of_cpu": dominant / traced_cpus[-1]},
        }
    return result


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    result = measure(name, int(seed), float(seconds), trace == "1", Path(workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
