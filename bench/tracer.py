"""In-memory span tracer that instruments library functions from outside.

A span is a tuple ``(sid, name, parent, start, end)``. ``sid`` numbers spans
in the order they were entered and ``parent`` is the sid of the enclosing
span (-1 at top level). Spans are appended to ``log`` when they end, so a
parent follows its children there; :meth:`Tracer.spans` returns them in
sid order. What a span's work function returned (a count computed from
array shapes, or the call's result) is kept in ``work[sid]``. Spans of one
benchmark run share the run number :meth:`Tracer.begin_run` handed out.

Wrappers replace attributes of modules or classes, so every call site that
looks a function up in a patched namespace is timed; :meth:`Tracer.restore`
puts the originals back.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import time
from contextlib import contextmanager

SID, NAME, PARENT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.log = []
        self.work = {}
        self._ids = itertools.count()
        self._stack = [-1]
        self._run_starts = []
        self._undo = []

    def begin_run(self) -> int:
        """Start a new run: spans entered from now on belong to it."""
        # every sid handed out so far has ended (log) or is still open (stack)
        self._run_starts.append(len(self.log) + len(self._stack) - 1)
        return len(self._run_starts) - 1

    def run_of(self, sid) -> int:
        return bisect.bisect_right(self._run_starts, sid) - 1

    def spans(self):
        """Every finished span, in the order the spans were entered."""
        return sorted(self.log)

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording one span per call.

        ``work(args, kwargs, out)`` runs after the span has ended, so its
        cost lands in the parent's self time, never in the span's own.
        """
        ids, stack, append, results = self._ids, self._stack, self.log.append, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                append((sid, name, parent, start, end))
            if work is not None:
                results[sid] = work(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.log.append((sid, name, parent, start, end))

    def replace(self, owner, attr, make):
        """Set ``owner.attr`` to ``make(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def patch(self, owner, attr, name, work=None):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, work))

    def patch_factory(self, owner, attr, name):
        """Trace every function returned by the factory ``owner.attr``."""
        def make(factory):
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self.wrap(name, factory(*args, **kwargs))

            return traced_factory

        self.replace(owner, attr, make)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    ``spans`` is the sid-ordered list from :meth:`Tracer.spans`.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def span_cost(repeats=20000, trials=7):
    """Seconds a traced call adds over a plain call, with a work function.

    The median over ``trials`` of the per-call difference; used to state
    the tracer's overhead as a share of the traced solve.
    """
    def noop(*args):
        return args

    costs = []
    for _ in range(trials):
        traced = Tracer().wrap("noop", noop, work=lambda args, kwargs, out: len(out))
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop(1)
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced(1)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / repeats)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
