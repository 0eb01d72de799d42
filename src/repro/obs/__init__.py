"""Unified observability: span tracing, metrics, Chrome-trace export.

``repro.obs`` is the one place run telemetry lives:

* :class:`Tracer` records spans, instants and counter samples stamped
  with **simulator virtual time** — traces are byte-stable per seed.
  ``None`` is the default everywhere, so disabled tracing costs one
  branch at cold emission sites and nothing on the per-page hot path.
* A metrics digest is a plain dict of counters, gauges, latency
  summaries and timestamped series under dotted names, read off each
  phase's result after it returned (``OptimizedQuery.stats``,
  :meth:`ServiceMetrics.sections <repro.service.metrics.ServiceMetrics.sections>`);
  :func:`metrics_table` prints one.  :func:`percentile` is the
  repository's one percentile implementation.
* :mod:`repro.obs.export` renders a tracer as Chrome trace-event JSON
  (Perfetto-loadable, one thread lane per track), flat JSON or a text
  summary table.
* :mod:`repro.obs.harness` drives an optimizer + service + micro-engine
  slice end to end with one tracer (``python -m repro trace``).
"""

from __future__ import annotations

from .export import (
    chrome_events,
    chrome_json,
    flat_events,
    flat_json,
    summary_table,
)
from .harness import TraceReport, run_trace, smoke_lines, validate_chrome
from .metrics import metrics_table, percentile, summarize
from .tracer import TraceEvent, Tracer

__all__ = [
    "TraceEvent",
    "TraceReport",
    "Tracer",
    "chrome_events",
    "chrome_json",
    "flat_events",
    "flat_json",
    "metrics_table",
    "percentile",
    "run_trace",
    "smoke_lines",
    "summarize",
    "summary_table",
    "validate_chrome",
]
