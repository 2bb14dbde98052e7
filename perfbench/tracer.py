"""Spans around the calls into each layer, kept in memory, plus self time.

The tracer wraps public callables of the program from the outside: bound
methods on their classes, and module attributes as the calling module sees
them (``repro.model.analytic.solve_mva_batch``).  Nothing inside ``src/`` is
touched.  Each call records one span ``(name, start, end, parent)``; the
parent is the innermost span open on the same thread when the call began.
Spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Summed over every span, self times equal the time
covered by the outermost spans, so over a timed window::

    sum(self times) + unattributed == window length

where ``unattributed`` is the part of the window no span covers (the
glue code between layer calls).  :func:`attribute` computes both.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class Span:
    """One call into a layer: name, interval, and the enclosing span."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or -1.
    parent: int
    #: True when the call raised.
    failed: bool = False


@dataclass
class Tracer:
    """In-memory span recorder (one per process, off in forked children)."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    #: Counters recorded at the same boundaries as the spans.
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _local: threading.local = field(default_factory=threading.local)
    _pid: int = field(default_factory=os.getpid)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Tracer", int, tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``after(tracer, span_index, args, result)`` runs once the call
        returns, outside the span, to update counters from the call's
        inputs or result.  Calls made in a forked child are passed straight
        through: their spans could never reach this process.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            index = len(tracer.spans)
            span = Span(name, tracer.clock(), 0.0, stack[-1] if stack else -1)
            stack.append(index)
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()
            if after is not None:
                after(tracer, index, args, result)
            return result

        return traced

    def add_child(self, parent: int, name: str, start: float, end: float) -> None:
        """Record a phase the program timed itself as a child of ``parent``."""
        self.spans.append(Span(name, start, end, parent))


def _union_length(intervals: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    return [(max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi]


def attribute(
    spans: Sequence[Span], window: tuple[float, float]
) -> tuple[list[float], float]:
    """Self time of every span, and the window's unattributed remainder.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it; the remainder is the window minus the union of
    the parentless spans clipped to it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    self_s = [
        (span.end - span.start)
        - _union_length(_clipped(children[i], span.start, span.end))
        for i, span in enumerate(spans)
    ]
    lo, hi = window
    unattributed = (hi - lo) - _union_length(_clipped(children[-1], lo, hi))
    return self_s, unattributed


def self_time_by_name(
    spans: Sequence[Span], window: tuple[float, float]
) -> tuple[dict[str, float], float]:
    """Self seconds summed per span name, and the unattributed remainder."""
    self_s, unattributed = attribute(spans, window)
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_s):
        totals[span.name] += seconds
    return dict(totals), unattributed


def patch(tracer: Tracer, target: str, name: str, after=None) -> Callable[[], None]:
    """Wrap ``module:Class.method`` or ``module:function``; returns an undo.

    A class attribute is wrapped on the class that defines it, so every
    subclass that inherits it is traced; the module form replaces the
    attribute the calling module looks up at call time.
    """
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    setattr(owner, attr, tracer.wrap(name, original, after))
    return lambda: setattr(owner, attr, original)
