"""In-memory span tracer for the benchmark's traced pass.

A span records a name, its start and end (``time.perf_counter``), its parent
and its thread. Spans stay in compact per-thread arrays until the pass ends.
``Tracer.wrap`` replaces one attribute with a wrapper that opens a span around
every call. Modules import each other by name, so a wrapper must go on the
binding the caller looks up (``routelab.rewards.simulate``), not only on the
defining module.

Self time divides wall time between threads: at every instant the wall time
goes in equal shares to the innermost open span of each thread, where a span
that has children open in another thread is not innermost. Summed over all
spans, self times therefore equal the root span's duration exactly, with or
without threads. In one thread this is the usual "duration minus the time its
children cover".
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import threading
import time
from array import array
from collections import defaultdict
from operator import itemgetter

_OPEN, _CLOSE = 1, 0


class _ThreadSpans:
    """Spans of one thread, in the order they opened."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")  # local index of the parent, -1 for a thread root
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # thread root -> (thread index, local index) of its parent in another thread
        self.cross_parent: dict[int, tuple[int, int]] = {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.cpu_s: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self.threads.append(spans)
            self._local.spans = spans
        return spans

    def _open(self, name_id: int) -> tuple[_ThreadSpans, int]:
        spans = self._spans()
        index = len(spans.start)
        if spans.stack:
            parent = spans.stack[-1]
        else:
            parent = -1
            main = self.threads[0]
            if spans is not main and main.stack:
                # A pool thread's first span belongs to the call that fanned out.
                spans.cross_parent[index] = (0, main.stack[-1])
        spans.name.append(name_id)
        spans.parent.append(parent)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(time.perf_counter())
        return spans, index

    @staticmethod
    def _close(spans: _ThreadSpans, index: int) -> None:
        spans.end[index] = time.perf_counter()
        spans.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        spans, index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(spans, index)

    def wrap(self, owner, attr: str, name: str, cpu: bool = False, after=None) -> None:
        """Open span ``name`` around every call of ``owner.attr``.

        ``cpu`` also sums the calling thread's CPU time into ``cpu_s[name]``;
        ``after(args, result)`` runs after each call returns.
        """
        inner = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            spans, index = tracer._open(name_id)
            cpu0 = time.thread_time() if cpu else 0.0
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._close(spans, index)
                if cpu:
                    used = time.thread_time() - cpu0
                    with tracer._lock:
                        tracer.cpu_s[name] += used
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- analysis --------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for spans in self.threads:
            for name_id in spans.name:
                counts[name_id] += 1
        return {name: counts[i] for i, name in enumerate(self.names)}

    def intervals(self, name: str) -> list[tuple[float, float]]:
        name_id = self._name_ids.get(name, -1)
        return [
            (spans.start[i], spans.end[i])
            for spans in self.threads
            for i, n in enumerate(spans.name)
            if n == name_id
        ]

    def _events(self, k: int):
        """Chronological (time, thread, kind, index) events of thread ``k``."""
        spans = self.threads[k]
        stack: list[int] = []
        for i, parent in enumerate(spans.parent):
            while stack and stack[-1] != parent:
                j = stack.pop()
                yield spans.end[j], k, _CLOSE, j
            stack.append(i)
            yield spans.start[i], k, _OPEN, i
        while stack:
            j = stack.pop()
            yield spans.end[j], k, _CLOSE, j

    def self_times(self) -> dict[str, float]:
        """Wall-time share of every span name (see the module docstring)."""
        totals = [0.0] * len(self.names)
        stacks: list[list[int]] = [[] for _ in self.threads]
        cross_open: dict[tuple[int, int], int] = defaultdict(int)
        streams = [self._events(k) for k in range(len(self.threads))]
        last = None
        for t, k, kind, i in heapq.merge(*streams, key=itemgetter(0)):
            if last is not None and t > last:
                leaves = [
                    (kk, stack[-1])
                    for kk, stack in enumerate(stacks)
                    if stack and not cross_open.get((kk, stack[-1]))
                ]
                share = (t - last) / len(leaves) if leaves else 0.0
                for kk, j in leaves:
                    totals[self.threads[kk].name[j]] += share
            last = t
            parent = self.threads[k].cross_parent.get(i)
            if kind == _OPEN:
                stacks[k].append(i)
                if parent is not None:
                    cross_open[parent] += 1
            else:
                stacks[k].pop()
                if parent is not None:
                    cross_open[parent] -= 1
        return {name: totals[i] for i, name in enumerate(self.names)}
