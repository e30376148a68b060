"""In-memory spans for the traced run, and the wrappers that record them.

A span is (name, start, end, parent, search, depth, slot). Spans are kept in
a list and reduced to metrics when the run ends. Parents come from a
per-thread stack; search, depth and slot are inherited from the parent when
a span does not set them.

:meth:`Tracer.patch` wraps module-level functions of hdlsmith in every
hdlsmith module that holds a reference to them, since the modules import
each other's functions by name, and restores the originals on exit.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

NAME, START, END, PARENT, SEARCH, DEPTH, SLOT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.keys: set = set()  # inputs already seen in this repetition
        self.traces: list = []  # (task name, SearchConfig, SearchTrace) of each search
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, search=None, depth=None, slot=None) -> Iterator[list]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            up = self.spans[parent]
            search = up[SEARCH] if search is None else search
            depth = up[DEPTH] if depth is None else depth
            slot = up[SLOT] if slot is None else slot
        record = [name, time.perf_counter(), None, parent, search, depth, slot]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def wrap(
        self,
        name: str,
        func: Callable,
        attrs: Callable[..., dict] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> Callable:
        """``func`` inside a span; ``attrs(*args, **kw)`` names its search,
        depth and slot, ``on_result(result, *args, **kw)`` records counts."""

        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    @contextmanager
    def patch(self, wrappers: dict[Callable, Callable]) -> Iterator[None]:
        """Replace each original function by its wrapper in all hdlsmith modules."""
        replaced = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hdlsmith" or mod_name.startswith("hdlsmith.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self.keys.clear()
        self.traces.clear()


def durations(spans: list[list], name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        end_so_far = None
        for start, end in sorted(children.get(i, ())):
            if end_so_far is None or start > end_so_far:
                covered += end - start
                end_so_far = end
            elif end > end_so_far:
                covered += end - end_so_far
                end_so_far = end
        result.append((s[END] - s[START]) - covered)
    return result


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it,
    and its value."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - n * pct / 100 >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)
