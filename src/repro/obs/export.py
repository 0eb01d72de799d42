"""Trace exporters: Chrome trace-event JSON, flat JSON, text summary.

The Chrome export targets the trace-event format that Perfetto and
``chrome://tracing`` load directly: a JSON array of records with
``ph``/``ts``/``pid``/``tid`` fields, one thread lane per tracer track,
with ``M``-phase metadata naming the lanes.  Timestamps are simulator
virtual time scaled to microseconds, so lane positions in Perfetto read
as simulated seconds — and because the engines are deterministic per
seed, the exported bytes are too.

Exports are pure functions of the tracer (plus an optional metrics
digest for the flat form); nothing here touches wall clock.
"""

from __future__ import annotations

import json

from ..bench.report import format_table
from .tracer import TraceEvent, Tracer

#: Process id used for every lane; one simulated machine = one process.
_PID = 1
#: Virtual seconds -> trace-event microseconds.
_US = 1_000_000.0


def _track_ids(events) -> dict[str, int]:
    """Track name -> thread id, assigned in first-appearance order."""
    ids: dict[str, int] = {}
    for event in events:
        if event.track not in ids:
            ids[event.track] = len(ids) + 1
    return ids


def chrome_events(tracer: Tracer) -> list[dict]:
    """The tracer's events as Chrome trace-event records.

    Spans become complete events (``ph: "X"``), instants become
    ``ph: "i"`` with thread scope, counter samples become ``ph: "C"``.
    Each distinct track gets its own ``tid`` plus a ``thread_name``
    metadata record, so Perfetto labels the lanes.
    """
    ids = _track_ids(tracer.events)
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro simulator"},
        }
    ]
    for track, tid in ids.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "ts": 0,
                "args": {"name": track},
            }
        )
        out.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "ts": 0,
                "args": {"sort_index": tid},
            }
        )
    for event in tracer.events:
        tid = ids[event.track]
        record: dict = {
            "name": event.name,
            "cat": event.cat,
            "pid": _PID,
            "tid": tid,
            "ts": event.start * _US,
        }
        if event.kind == "span":
            record["ph"] = "X"
            record["dur"] = event.dur * _US
        elif event.kind == "counter":
            record["ph"] = "C"
            record["args"] = {"value": event.value}
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if event.args:
            record.setdefault("args", {}).update(event.args)
        out.append(record)
    return out


def chrome_json(tracer: Tracer) -> str:
    """The Chrome trace-event export as a deterministic JSON string."""
    return json.dumps(chrome_events(tracer), indent=1, sort_keys=True) + "\n"


def flat_events(tracer: Tracer) -> list[dict]:
    """The tracer's events as plain dicts (no Chrome framing)."""
    out = []
    for event in tracer.events:
        record: dict = {
            "kind": event.kind,
            "name": event.name,
            "cat": event.cat,
            "track": event.track,
            "t": event.start,
        }
        if event.kind == "span":
            record["dur"] = event.dur
        if event.kind == "counter":
            record["value"] = event.value
        if event.args:
            record["args"] = dict(event.args)
        out.append(record)
    return out


def flat_json(tracer: Tracer, metrics: dict | None = None) -> str:
    """Events plus the metrics digest as one deterministic JSON string."""
    payload: dict = {"events": flat_events(tracer)}
    if metrics is not None:
        payload["metrics"] = metrics
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _span_bounds(events: list[TraceEvent]) -> tuple[float, float]:
    """(first start, last end) over a category's events."""
    first = min(e.start for e in events)
    last = max(e.start + e.dur for e in events)
    return first, last


def summary_table(tracer: Tracer) -> str:
    """Per-category event counts and time bounds as a printable table."""
    rows = []
    for cat, events in sorted(tracer.by_category().items()):
        spans = [e for e in events if e.kind == "span"]
        first, last = _span_bounds(events)
        rows.append(
            [
                cat,
                str(len(events)),
                str(len(spans)),
                f"{first:.4f}",
                f"{last:.4f}",
                f"{sum(e.dur for e in spans):.4f}",
            ]
        )
    return format_table(
        ["category", "events", "spans", "first (s)", "last (s)", "span s"],
        rows,
        title=f"trace summary — {len(tracer.events)} events, "
        f"{len(tracer.tracks())} tracks",
    )
