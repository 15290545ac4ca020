"""Tracer arithmetic on a synthetic two-thread call tree with a fake clock."""
import sys
import threading
import types

import pytest

import tracer as tracer_mod
from layers import _b_detail
from tracer import Target, TraceError, Tracer


class FakeClock:
    """Global wall clock plus per-thread CPU clocks, advanced explicitly."""

    def __init__(self):
        self.now = 0.0
        self.local = threading.local()

    def perf_counter(self):
        return self.now

    def thread_time(self):
        return getattr(self.local, "busy", 0.0)

    def work(self, busy, wait=0.0):
        self.now += busy + wait
        self.local.busy = self.thread_time() + busy


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "time", types.SimpleNamespace(
        perf_counter=fake.perf_counter, thread_time=fake.thread_time))
    return fake


def test_self_and_wait_on_nested_two_thread_tree(clock):
    t = Tracer(spawners=frozenset({"scan"}))

    def worker():
        def leaf_c():
            clock.work(0.2)
        t.call("root_b", lambda: (clock.work(0.4, 0.1), t.call("leaf_c", leaf_c, (), {})),
               (), {})

    def scan():
        clock.work(0.1, 0.2)
        t.call("leaf_a", clock.work, (0.3, 0.05), {})
        th = threading.Thread(target=worker)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive()

    t.call("scan", scan, (), {})
    s = t.summary()
    assert s["scan"]["wall"] == pytest.approx(1.35)
    assert s["scan"]["busy"] == pytest.approx(0.4)
    assert s["scan"]["self_busy"] == pytest.approx(0.1)
    assert s["scan"]["self_wait"] == pytest.approx(0.9)
    assert s["leaf_a"]["self_busy"] == pytest.approx(0.3)
    assert s["leaf_a"]["self_wait"] == pytest.approx(0.05)
    assert s["root_b"]["wall"] == pytest.approx(0.7)
    assert s["root_b"]["self_busy"] == pytest.approx(0.4)
    assert s["root_b"]["self_wait"] == pytest.approx(0.1)
    assert s["leaf_c"]["self_busy"] == pytest.approx(0.2)
    assert s["leaf_c"]["self_wait"] == pytest.approx(0.0)

    causes = {span.name: span.cause for span in t.spans}
    assert causes == {"leaf_a": "scan", "leaf_c": "root_b", "root_b": "scan", "scan": None}
    assert t.caused_wall("scan") == pytest.approx(0.7)
    t.require(["scan", "root_b"])
    with pytest.raises(TraceError, match="leaf_d"):
        t.require(["scan", "leaf_d"])


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    core.f = f
    user.f = f  # a ``from .core import f`` binding
    pkg.core, pkg.user = core, user
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg


def test_install_rebinds_copies_and_uninstall_restores(fake_package):
    original = fake_package.core.f
    t = Tracer()
    seen = []
    t.install([Target("core.f", "fakepkg.core", "f",
                      observe=lambda tr, a, r: seen.append((a, r)))], package="fakepkg")
    assert fake_package.user.f(1) == 2
    assert fake_package.core.f(2) == 3
    assert t.summary()["core.f"]["calls"] == 2
    assert seen == [((1,), 2), ((2,), 3)]
    t.uninstall()
    assert fake_package.core.f is original and fake_package.user.f is original


def test_missing_name_fails_and_leaves_nothing_patched(fake_package):
    original = fake_package.core.f
    t = Tracer()
    with pytest.raises(TraceError, match="nope"):
        t.install([Target("core.f", "fakepkg.core", "f"),
                   Target("core.nope", "fakepkg.core", "nope")], package="fakepkg")
    assert fake_package.user.f is original and fake_package.core.f is original


def test_b_detail_requested_then_stripped():
    detail = types.SimpleNamespace(n_histories=7, pruned_mass=1e-13)
    calls = []

    def original(*args, return_detail=False, prune_tol=1e-12):
        calls.append(return_detail)
        return (0.25, detail) if return_detail else 0.25

    t = Tracer()
    adapted = _b_detail(t, original)
    assert adapted("guess", "spectra") == 0.25
    assert adapted("guess", "spectra", return_detail=True) == (0.25, detail)
    assert calls == [True, True]
    assert t.peaks["phase_estimation.b_histories_peak"] == 7
    assert t.peaks["phase_estimation.b_pruned_mass"] == 1e-13
