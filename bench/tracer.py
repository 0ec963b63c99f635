"""In-memory span recorder that wraps functions from outside the program.

A span is ``[name, start, end, parent, run, ok]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``run`` the run id current when the span
opened, ``ok`` false when the call raised.  Spans live in memory until
``dump`` writes them out.  The recorder assumes one thread.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.run = 0
        self.active = True
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` by a traced version recording span ``name``.

        ``on_return(args, kwargs, result)`` runs after the span has closed, so
        its cost is not charged to the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, tracer.clock(), None, parent, tracer.run, True])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, ok=False)
                raise
            tracer._close(index, ok=True)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block bypass every wrapper."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _close(self, index: int, ok: bool):
        span = self.spans[index]
        span[2] = self.clock()
        span[5] = ok
        self._stack.pop()

    def uninstall(self):
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fp:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "ok"],
                       "spans": self.spans, "counts": dict(self.counts)}, fp)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered(spans, names) -> float:
    """Wall time during which at least one span named in ``names`` was open.

    Nested or repeated spans of the same set are counted once.
    """
    names = set(names)
    return union_length((s[1], s[2]) for s in spans if s[0] in names)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - union_length(children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def durations(spans, name) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]
