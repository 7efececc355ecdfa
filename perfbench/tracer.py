"""Span tracing of bayeshield from outside the package.

The tracer replaces chosen public functions, wherever a ``bayeshield.*``
module binds them as a global, with wrappers that record a span (name,
start, end, parent span, operation id) and optional counts. Spans stay
in memory until the caller summarises them. A target that no longer
exists, or a count whose attribute is gone, is reported as absent
instead of failing, so the benchmark outlives planned API deletions.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation root
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.absent: set = set()
        self._stack: list = []
        self._op = -1
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        """Record one span; a span opened with no span open starts a new operation."""
        if not self._stack:
            self._op += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def _wrapper(self, name: str, func, counters: dict):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
            for key, count in counters.items():
                try:
                    span.counts[key] = count(args, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.absent.add(f"{name}.{key}")
            return result

        return traced

    def install(self, package: str, targets: dict) -> None:
        """Wrap each ``"module.function"`` of ``targets`` (mapped to its
        counters, name -> fn(args, result)) at every global binding of it
        in ``package`` and its loaded submodules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, counters in targets.items():
            module_name, _, func_name = name.rpartition(".")
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrapper(name, original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self, package: str, targets: dict):
        self.install(package, targets)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list) -> list:
    """Each span's duration minus its children's. Spans nest, because the
    wrappers are context managers entered on one thread."""
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counts: dict = field(default_factory=dict)


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, Totals())
        t.calls += 1
        t.seconds += span.end - span.start
        t.self_seconds += own
        for key, value in span.counts.items():
            t.counts[key] = t.counts.get(key, 0) + value
    return out
