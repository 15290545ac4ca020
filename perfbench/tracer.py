"""Span tracer that wraps qfci's public functions from outside the package.

Each wrapped call opens a span on a thread-local stack and records its
wall time (``perf_counter``) and CPU time of the calling thread
(``thread_time``).  A span's self time is its own time minus the time of
the spans nested directly inside it on the same thread; ``wait`` is self
wall minus self busy, i.e. time the thread spent off the CPU (GIL,
locks, BLAS threads doing the work).  Each child span's wall also
covers its own clock reads (about a microsecond), so a parent with many
short children can show a slightly negative wait.  A span that opens on
a thread with an empty stack while a spawner span (``cli.run_scan``) is
open elsewhere names that spawner as its cause.

Wrapping replaces every binding of the original object in the loaded
``qfci`` modules (``from .x import f`` copies included), so calls made
inside the package are traced too; ``uninstall`` restores them all.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected span recorded no calls."""


@dataclass
class Span:
    name: str
    thread: int
    cause: str | None
    wall: float = 0.0
    busy: float = 0.0
    child_wall: float = 0.0
    child_busy: float = 0.0

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_busy(self) -> float:
        return self.busy - self.child_busy


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module path, optionally
    ``module:Class``; ``adapt`` may replace the callable (same signature)
    and ``observe(tracer, args, result)`` records computed counts."""

    name: str
    owner: str
    attr: str
    adapt: Callable | None = None
    observe: Callable | None = None


@dataclass
class Tracer:
    spawners: frozenset = frozenset()
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    peaks: dict = field(default_factory=lambda: defaultdict(int))

    def __post_init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_spawner: str | None = None
        self._patched: list = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        cause = parent.name if parent else self._open_spawner
        span = Span(name, threading.get_ident(), cause)
        stack.append(span)
        if name in self.spawners:
            self._open_spawner = name
        w0 = time.perf_counter()
        b0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span.busy = time.thread_time() - b0
            span.wall = time.perf_counter() - w0
            stack.pop()
            if name in self.spawners:
                self._open_spawner = None
            if parent is not None:
                parent.child_wall += span.wall
                parent.child_busy += span.busy
            with self._lock:
                self.spans.append(span)

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks[key], value)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self.peaks = defaultdict(int)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        inner = target.adapt(self, original) if target.adapt else original
        tracer, name, observe = self, target.name, target.observe

        def traced(*args, **kwargs):
            result = tracer.call(name, inner, args, kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, targets, package: str = "qfci") -> None:
        """Wrap every target; raises TraceError if a name is missing."""
        if self._patched:
            raise TraceError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        try:
            for target in targets:
                mod_name, _, cls_name = target.owner.partition(":")
                try:
                    owner = importlib.import_module(mod_name)
                    if cls_name:
                        owner = getattr(owner, cls_name)
                    original = owner.__dict__[target.attr] if cls_name else getattr(owner, target.attr)
                except (ImportError, AttributeError, KeyError) as exc:
                    raise TraceError(f"cannot wrap {target.owner}.{target.attr}: {exc!r}") from exc
                wrapper = self._wrap(target, original)
                sites = [(owner, target.attr)]
                if not cls_name:
                    sites += [(m, k) for m in modules for k, v in vars(m).items()
                              if v is original and m is not owner]
                for obj, attr in sites:
                    setattr(obj, attr, wrapper)
                    self._patched.append((obj, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched = []

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall, busy, self_busy, self_wait."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, dict.fromkeys(
                ("calls", "wall", "busy", "self_busy", "self_wait"), 0.0))
            row["calls"] += 1
            row["wall"] += s.wall
            row["busy"] += s.busy
            row["self_busy"] += s.self_busy
            row["self_wait"] += s.self_wall - s.self_busy
        return out

    def caused_wall(self, cause: str) -> float:
        """Summed wall of root spans on other threads caused by ``cause``."""
        own = {s.thread for s in self.spans if s.name == cause}
        return sum(s.wall for s in self.spans
                   if s.cause == cause and s.thread not in own)

    def require(self, names) -> None:
        seen = {s.name for s in self.spans}
        missing = sorted(set(names) - seen)
        if missing:
            raise TraceError(f"expected spans recorded no calls: {missing}")
