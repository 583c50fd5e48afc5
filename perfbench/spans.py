"""Span tracer for the benchmark: wraps calls into the ksync layers.

Spans are recorded from the benchmark's side, by replacing the public
functions of each ``ksync`` module with timing wrappers for the duration of
a traced op.  A function is often bound under its own name in several
modules (``connected_components`` in ``core``, ``disentangle`` and ``grp``;
``solve`` in ``sync`` and ``harness``; re-exports in the package), so the
wrapper is installed on every module attribute that holds the original.

Each thread keeps its own span stack.  A span opened on a thread whose
stack is empty (a ``harness`` pool worker) is adopted by the innermost span
open on the thread that created the tracer, which is the caller blocked on
the pool.  Self time is a span's duration minus the union of its children's
intervals, so overlapping children on two workers are not subtracted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # the main thread waits inside its innermost span while a pool
            # worker runs, so that span is the worker's cause
            main = self._main_stack
            parent = main[-1].id if main and stack is not main else None
        with self._lock:
            span = Span(next(self._ids), name, parent, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, error: bool = False) -> None:
        span.end = time.perf_counter()
        span.error = error
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def call(self, name: str, fn, args, kwargs, hook=None):
        span = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.end(span, error=True)
            raise
        self.end(span)
        if hook is not None:
            hook(self, args, kwargs, out)
        return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children[s.id], s.start, s.end)
        for s in spans
    }


def busy_ratio(spans, root: Span, threads: int) -> float:
    """Sum over threads of the time covered by root's children, per thread,
    divided by threads x root's duration."""
    per_thread = defaultdict(list)
    for s in spans:
        if s.parent == root.id:
            per_thread[s.thread].append((s.start, s.end))
    busy = sum(_union_length(iv, root.start, root.end) for iv in per_thread.values())
    wall = root.end - root.start
    return busy / (threads * wall) if wall > 0 and threads > 0 else 0.0


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return traced


def _counter_only(tracer: Tracer, fn, hook):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(tracer, args, kwargs, out)
        return out

    return counted


def install(tracer: Tracer, modules, table) -> Callable[[], None]:
    """Replace every module attribute bound to a function in ``table``.

    ``table`` maps (module, function name) to (span name or None, hook);
    a None span name installs a counter-only wrapper.  Returns a function
    that restores the originals.
    """
    replaced = []
    for (home, attr), (span_name, hook) in table.items():
        original = getattr(home, attr)
        if span_name is None:
            wrapper = _counter_only(tracer, original, hook)
        else:
            wrapper = _wrap(tracer, span_name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    replaced.append((mod, key, original))

    def restore():
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)

    return restore
