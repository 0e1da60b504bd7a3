"""In-memory spans recorded around calls into the program's layers.

A span is one timed call: name, start, end, the span that caused it and
the request it belongs to.  ``splits`` are durations the program itself
reports for work inside the span (``DODResult.phases``, build phases);
they have no start time, so they count against the span's self time but
are not intervals.  Nothing is written until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: "int | None"
    req: str
    name: str
    t0: float
    t1: float
    splits: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans when enabled; every call is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        #: seconds spent in the tracer's own bookkeeping (its direct cost)
        self.cost = 0.0

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, name, t0, t1, req, parent=None, splits=None,
               counts=None) -> "int | None":
        """Add a finished span; safe to call from several threads."""
        if not self.enabled:
            return None
        begin = time.perf_counter()
        span = Span(self._new_id(), parent, str(req), name, t0, t1,
                    dict(splits or {}), dict(counts or {}))
        self.spans.append(span)
        self.cost += time.perf_counter() - begin
        return span.sid

    @contextmanager
    def span(self, name: str, req: "str | None" = None):
        """Time a block on the main thread; nested blocks become children.

        Yields the open span (None when disabled) so the caller can
        attach splits and counts before it closes.
        """
        if not self.enabled:
            yield None
            return
        begin = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = Span(self._new_id(), None if parent is None else parent.sid,
                    str(req if req is not None else parent.req), name,
                    time.perf_counter(), 0.0)
        self._stack.append(span)
        self.cost += span.t0 - begin
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            self.cost += time.perf_counter() - span.t1

    def to_json(self) -> list[dict]:
        return [
            {"id": s.sid, "parent": s.parent, "req": s.req, "name": s.name,
             "t0": s.t0, "t1": s.t1, "splits": s.splits, "counts": s.counts}
            for s in self.spans
        ]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus child-covered time minus reported splits."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.sid: s.seconds - covered(children.get(s.sid, ()))
        - sum(s.splits.values())
        for s in spans
    }


def nesting_errors(spans, slack: float = 1e-6) -> list[str]:
    """Children that leave their parent, or splits that overfill a span."""
    by_id = {s.sid: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is not None:
            p = by_id.get(s.parent)
            if p is None:
                errors.append(f"span {s.sid} ({s.name}) has no parent {s.parent}")
            elif s.t0 < p.t0 - slack or s.t1 > p.t1 + slack:
                errors.append(f"span {s.sid} ({s.name}) outside parent "
                              f"{p.sid} ({p.name})")
            elif s.req != p.req:
                errors.append(f"span {s.sid} ({s.name}) changes request id")
        if sum(s.splits.values()) > s.seconds + slack:
            errors.append(f"span {s.sid} ({s.name}): reported splits "
                          f"exceed its duration")
    return errors


def layer_table(spans) -> list[tuple]:
    """(layer, calls, total seconds, self seconds) per span or split name."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += own[s.sid]
        for name, sec in s.splits.items():
            split = rows.setdefault(name, [0, 0.0, 0.0])
            split[0] += 1
            split[1] += sec
            split[2] += sec
    return [(name, *row) for name, row in sorted(rows.items())]
