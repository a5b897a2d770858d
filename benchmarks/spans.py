"""In-memory span recording around calls into the fieldflower layers.

A span is (name, start_ns, end_ns, parent index or -1, op id); its layer is
the first dot-separated part of its name.  Spans are only ever recorded from
the benchmark's side of a call: around the calls the workloads make, and,
while ``boundaries`` is active, around the cross-module function references
inside the package (e.g. ``ntt``'s reference to ``modlinalg.mat_vec``), so
that one layer's time inside another shows up as a child span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("gfield", "modlinalg", "ntt", "codes", "flowergeom", "render",
          "verify", "cli")

# Modules whose imports from sibling modules are wrapped in traced passes.
# render's references to flowergeom are left alone: panel calls them from
# pool threads, where a parent span cannot be attributed.
BOUNDARY_MODULES = ("ntt", "codes", "verify", "cli")


# A traced pass ends after the round in which it reaches this many spans.
MAX_SPANS = 100_000


class NullTracer:
    """Untraced passes: calls go straight through, counters are dropped."""

    op_id = 0

    @staticmethod
    def full() -> bool:
        return False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, value):
        pass


class Tracer:
    """Records spans and counters of the main thread in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, list] = defaultdict(list)
        self.op_id = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def call(self, name, fn, *args, **kwargs):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def count(self, name, value):
        self.counters[name].append(value)

    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def durations(self) -> dict[str, list[int]]:
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_ns(self) -> dict[str, int]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def layer_calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for name, *_ in self.spans:
            out[name.split(".", 1)[0]] += 1
        return out


@contextlib.contextmanager
def boundaries(ff, tracer: Tracer):
    """Wrap every function a boundary module imported from a sibling module."""
    saved = []
    for modname in BOUNDARY_MODULES:
        mod = importlib.import_module(f"{ff.__name__}.{modname}")
        for attr, fn in list(vars(mod).items()):
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__.startswith("fieldflower.")
                    and fn.__module__ != mod.__name__):
                layer = fn.__module__.rsplit(".", 1)[1]
                saved.append((mod, attr, fn))
                setattr(mod, attr, _wrapped(tracer, f"{layer}.{fn.__name__}", fn))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _wrapped(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper
