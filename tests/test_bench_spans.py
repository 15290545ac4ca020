"""The benchmark's traced runs still see every layer they require.

``perfbench/run.py --trace 1`` fails a workload whose traced invocation
records no call of one of its expected spans.  Each workload runs once
here with the same tracer, so a change that takes a required layer off
a workload's path fails the suite instead of the benchmark.
"""
import sys
from pathlib import Path

import pytest

import qfci.cli

# the perfbench modules import one another by bare name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_workload_records_expected_spans(name, tmp_path, capsys):
    wl = workloads.build(name, tmp_path)
    tracer = Tracer(spawners=layers.SPAWNERS)
    tracer.install(layers.TARGETS)
    try:
        code = qfci.cli.main([*wl.argv, "--seed", "7"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    tracer.require(wl.expected_spans)
    assert wl.check(*(path.read_text() for path in wl.outputs)) == []
