"""Span tracing around ordpat's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
ordpat module that holds it, so a call from one module into another (for
instance ``dependence.analyze_pair`` calling ``pattern_sequence``) nests its
span under the caller's. Spans stay in memory until :meth:`Tracer.dump`.

Hot helpers (``lex_rank``, ``reflect``, ``rank_to_pattern``) are not wrapped:
they run hundreds of thousands of times per h=8 call and a span would cost
more than their work, so their time stays in their callers' self time.
``extract_pattern`` gets a call counter instead of a span for the same reason.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

MODULES = ("ordpat", "ordpat.ingest", "ordpat.patterns", "ordpat.dependence",
           "ordpat.synth", "ordpat.cli")


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _covered_positions(result, args, kwargs) -> int:
    # Distinct window positions of the input pair a delay/rolling call covers.
    x, h = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 2, "h")
    scheme = _arg(args, kwargs, 3, "scheme")
    sliding = scheme is None or getattr(scheme, "value", scheme) == "sliding"
    return len(x) - h if sliding else (len(x) - 1) // h


def _analyze_items(result, args, kwargs):
    return (result.h, result.n_windows)


# (module, function) -> how to count the work in its result, or None.
TRACED: dict[tuple[str, str], Optional[Callable]] = {
    ("ingest", "read_csv"): lambda r, a, k: len(r),
    ("ingest", "align"): lambda r, a, k: r.dropped_a + r.dropped_b,
    ("patterns", "pattern_sequence"): lambda r, a, k: len(r),
    ("dependence", "distribution"): lambda r, a, k: len(r.counts),
    ("dependence", "coincident_reflected_counts"): None,
    ("dependence", "analyze_pair"): _analyze_items,
    ("dependence", "delay_scan"): _covered_positions,
    ("dependence", "rolling_analysis"): lambda r, a, k: (len(r), _covered_positions(r, a, k)),
    ("synth", "correlated_ar1_pair"): None,
    ("cli", "write_csv"): None,
    ("cli", "main"): None,
}
COUNTED = (("patterns", "extract_pattern"),)


@dataclass
class Span:
    name: str  # "module.function"
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span
    op: int  # operation id: spans of one benchmark operation share it
    items: object = None  # what TRACED counted in the result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.skipped: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wanted = [(key, self._span_wrapper) for key in TRACED]
        wanted += [(key, self._count_wrapper) for key in COUNTED]
        for (module, func), make in wanted:
            original = getattr(by_name[module], func, None)
            if not callable(original):
                if f"{module}.{func}" not in self.skipped:  # removed or renamed
                    self.skipped.append(f"{module}.{func}")
                continue
            wrapper = make(f"{module}.{func}", original, TRACED.get((module, func)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _span_wrapper(self, name: str, fn: Callable, measure: Optional[Callable]):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.items = measure(result, args, kwargs)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable, measure):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name, over spans from ``first`` on: each
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans[first:]:
            if span.parent is not None:
                child[span.parent] += span.duration
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans[first:], child[first:]):
            totals[span.name] += span.duration - inner
        return totals

    def ancestor(self, index: int, names: tuple[str, ...]) -> Optional[int]:
        parent = self.spans[index].parent
        while parent is not None and self.spans[parent].name not in names:
            parent = self.spans[parent].parent
        return parent

    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": dict(self.counters), "skipped": self.skipped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
