"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary: ``(sid, parent, name,
start, end, rid)``. Spans nest through a per-thread stack; a span opened
on another thread names its parent explicitly (the load generator's
request span is the parent of the server thread's handler span, linked by
request id). Nothing is written while the workload runs: the tracer keeps
every span in a list and :func:`dump` writes them out at the end.

Self time is a span's duration minus the part of its interval covered by
its children. Children on other threads may overlap each other, so the
covered part is the length of the *union* of the children's intervals,
clipped to the parent — never their sum, which could exceed the parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

__all__ = ["Span", "Tracer", "dump", "self_times", "union_length"]

HARNESS = "bench"  # span-name prefix of the benchmark's own phases


class Span(NamedTuple):
    sid: int
    parent: "int | None"
    name: str
    start: float
    end: float
    rid: "str | None"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """``sid -> self time`` for every span."""
    children: "dict[int, list[tuple[float, float]]]" = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - union_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


class Tracer:
    """Records spans around wrapped callables.

    ``opaque`` spans hide their callees: a wrapped call made inside one
    records nothing and is timed as part of it (LLM synthesis steps a
    private session whose per-token calls are not the session layer).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._by_rid: "dict[str, int]" = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: "str | None" = None, parent: "int | None" = None,
             opaque: bool = False, link: bool = False):
        """Start a span on this thread; returns a token for :meth:`close`,
        or None when an opaque span is already open here."""
        stack = self._stack()
        if stack and stack[-1][2]:
            return None
        if parent is None and stack:
            parent = stack[-1][0]
            if rid is None:
                rid = stack[-1][1]
        elif parent is None and rid is not None:
            parent = self._by_rid.get(rid)  # a span opened for rid elsewhere
        sid = next(self._ids)
        if link and rid is not None:
            self._by_rid[rid] = sid
        stack.append((sid, rid, opaque))
        return (sid, parent, name, rid, self.clock())

    def close(self, token) -> None:
        if token is None:
            return
        end = self.clock()
        sid, parent, name, rid, start = token
        stack = self._stack()
        stack.pop()
        self.spans.append(Span(sid, parent, name, start, end, rid))

    def bind(self, fn: Callable) -> Callable:
        """``fn`` whose spans, on whatever thread runs it, are children of
        the span open here now (work handed to a thread pool)."""
        stack = self._stack()
        if not stack or stack[-1][2]:
            return fn
        top = stack[-1]

        def bound(*args, **kwargs):
            inner = self._stack()
            inner.append(top)
            try:
                return fn(*args, **kwargs)
            finally:
                inner.pop()

        return bound

    @contextlib.contextmanager
    def span(self, name: str, **kwargs):
        """A span around a ``with`` block; yields its id (None if hidden)."""
        token = self.open(name, **kwargs)
        try:
            yield token[0] if token else None
        finally:
            self.close(token)

    def wrap(self, fn: Callable, name: str, opaque: bool = False,
             rid: "Callable | None" = None, after: "Callable | None" = None) -> Callable:
        """``fn`` recording one span per call. ``rid(args, kwargs)``
        names the request; ``after(result, args, kwargs)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.open(name, rid=rid(args, kwargs) if rid else None, opaque=opaque)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(token)
            if after is not None and token is not None:
                after(result, args, kwargs)
            return result

        return traced


def dump(spans: "list[Span]", path) -> None:
    """Write spans as JSON lines, one per span, in recording order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
