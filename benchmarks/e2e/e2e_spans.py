"""Host-time spans recorded from outside the program.

A traced pass installs timing wrappers around public ``repro`` callables
(and the harness's own module-level references to public functions),
records one span per call — name, start, end, parent, pass id — in
memory, and removes the wrappers afterwards.  A layer's *self* time is
its spans' duration minus the part covered by their direct child spans,
so nested layers (the fluid engine inside ``parcost`` inside the
optimizer; the inner policy inside the gate inside the engine) are each
charged once.

These are wall-clock spans of the Python process.  They are never mixed
with ``repro.obs`` traces, which are stamped with virtual time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Span record layout (a list, mutated once when the call returns).
NAME, START, END, PARENT, PASS = range(5)


class SpanRecorder:
    """Installs, records through and removes timing wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``name`` spans.

        ``owner`` is a class (the method is patched where it is defined)
        or a module (a module-level reference is patched).
        """
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration net of the span's direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans: list[list], own: list[float]) -> dict[int, dict[str, float]]:
    """``pass id -> span name -> summed self seconds`` (``own`` per span)."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(spans, own):
        totals[span[PASS]][span[NAME]] += self_s
    return totals


def chrome_trace(spans: list[list]) -> str:
    """The spans as Chrome trace-event JSON (one thread lane per pass)."""
    origin = min((s[START] for s in spans), default=0.0)
    events = [
        {
            "name": s[NAME],
            "cat": s[NAME].rsplit(".", 1)[0],
            "ph": "X",
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "pid": 1,
            "tid": s[PASS],
            "args": {"parent": s[PARENT]},
        }
        for s in spans
    ]
    return json.dumps(events)
