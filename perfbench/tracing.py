"""Span recorder that wraps the package's public functions from outside.

Spans live in memory (name, start, end, parent span, operation id) and
are written once, when the benchmark ends.  A layer's self time is its
span's duration minus the time its child spans cover.  Wrapping replaces
the function object in every richwords module that holds it, so callers
that imported the name directly are traced too; `patched` restores the
originals on exit.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute) pairs wrapped in a traced run; names are the span
# names, prefixed with the layer (module) they belong to
TRACED = [
    ("richwords.enumeration", "count_rich"),
    ("richwords.enumeration", "count_rich_symmetric"),
    ("richwords.enumeration", "save_cache"),
    ("richwords.enumeration", "load_cache"),
    ("richwords.bounds", "seed_table_from_counts"),
    ("richwords.bounds", "recurrence_bound"),
]
WALKS = ("enumeration.count_rich", "enumeration.count_rich_symmetric")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None
        self.pool_tasks = 0

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.op, name,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers of TRACED and the counting pool; undo on
        exit."""
        saved = []
        modules = [m for k, m in sys.modules.items()
                   if k == "richwords" or k.startswith("richwords.")]
        targets = [(sys.modules[mod], attr) for mod, attr in TRACED]
        targets.append((sys.modules["richwords.enumeration"],
                        "ProcessPoolExecutor"))
        for home, attr in targets:
            original = getattr(home, attr, None)
            if original is None:  # layer refactored away: nothing to trace
                continue
            if attr == "ProcessPoolExecutor":
                replacement = _counting_pool(self, original)
            else:
                layer = home.__name__.rsplit(".", 1)[-1]
                replacement = self.wrap(original, f"{layer}.{attr}")
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the direct children's intervals
        (children of one span run one after another here, so the union
        is their sum clipped to the parent)."""
        covered = sum(min(c.end, span.end) - max(c.start, span.start)
                      for c in self.children(span))
        return span.duration - covered

    def of_op(self, op: int, name: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.op == op and (name is None or s.name == name)]

    def dump(self, path, record: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": record,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _counting_pool(recorder: Recorder, base):
    """A pool class that counts the tasks handed to it (map submits its
    items in chunks, so it counts items itself and hides its submits)."""

    class CountingPool(base):
        _in_map = False

        def submit(self, fn, /, *args, **kwargs):
            if not self._in_map:
                recorder.pool_tasks += 1
            return super().submit(fn, *args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            recorder.pool_tasks += min(map(len, iterables), default=0)
            self._in_map = True
            try:
                return super().map(fn, *iterables, **kwargs)
            finally:
                self._in_map = False

    return CountingPool
