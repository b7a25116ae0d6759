"""In-memory span tracer that wraps a package's public functions.

Every public function defined in a module of the package is wrapped once,
and every binding of it across the package's modules (found by object
identity, so re-exports and ``from x import f`` aliases are included) is
replaced by the wrapper.  ``uninstall`` puts every original binding back.

Spans record name, start, end, parent span and op id, and stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    op: int | None  # op id current when the span opened; None outside ops


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a per-op counter (attributed to the current op)."""
        self.counts.append((self.op, name, value))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; on_return hooks are the caller's business."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.count(name + ".errors")
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        """A wrapper of fn that records a span and, if given, the counters
        ``on_return(result, args)`` returns as a {name: value} dict."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_return is not None:
                for key, value in on_return(result, args).items():
                    self.count(key, value)
            return result
        return traced

    def install(self, package: str, name_for,
                hooks: dict | None = None) -> None:
        """Wrap the package's public functions and patch all their bindings.

        name_for(module, function) gives the span name, or None to leave the
        function alone; module is the dotted name below the package.  hooks
        maps a span name to an on_return callback.
        """
        hooks = hooks or {}
        modules = _package_modules(package)
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                short = mod.__name__[len(package) + 1:] or package
                name = name_for(short, obj.__name__)
                if name is not None:
                    wrappers[id(obj)] = (obj, self.wrap(obj, name,
                                                        hooks.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)


def _package_modules(package: str) -> list:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package
                                    or name.startswith(package + "."))]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children never overlap and
    their summed durations are the part of its interval they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def per_op_table(spans: list[Span], counts) -> dict:
    """{op: {metric: value}} with <span>.calls, .ms, .self_ms and counters.

    Spans and counts recorded outside ops (op None) are left out.
    """
    table: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        if span.op is None:
            continue
        row = table[span.op]
        row[span.name + ".calls"] += 1
        row[span.name + ".ms"] += (span.end - span.start) * 1e3
        row[span.name + ".self_ms"] += own * 1e3
    for op, name, value in counts:
        if op is not None:
            table[op][name] += value
    return table


def op_medians(table: dict, ops, names=None) -> dict:
    """Median over the given ops of each metric; absent metrics count as 0."""
    ops = list(ops)
    if names is None:
        names = sorted({name for op in ops for name in table.get(op, {})})
    return {name: statistics.median(table.get(op, {}).get(name, 0.0)
                                    for op in ops)
            for name in names}
