"""Span tracer for one in-process run of ``trisparse.cli.main``.

The tracer wraps public functions at the module attributes their callers
resolve (``trisparse.cli.load_edge_list``, ``Graph.build``, ...), so the
program runs unchanged and every span is recorded from the benchmark's own
code. Spans carry their parent; each thread keeps its own parent stack, and
a pool worker, whose stack starts empty, takes as parent the span the main
thread is blocked in (``doubling_search`` waiting on its trials).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None = None
    end: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while patched; ``with tracer:`` restores every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording a span per call. ``note(args, kwargs,
        result)`` may return a dict kept on the span; it runs after the
        span has closed, so its cost lands in the parent's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, perf_counter(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, note))
        else:
            replacement = self.wrap(name, original, note)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it covered by its children;
        children that ran in parallel are counted once."""
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in self.spans if c.parent is span)
        covered = 0.0
        reach = span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))
