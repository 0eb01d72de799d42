"""The span tracer: virtual-time event recording for whole runs.

A :class:`Tracer` collects :class:`TraceEvent` records — spans with a
start and duration, point-in-time instants, and counter samples — all
stamped with **simulator virtual time**, never wall clock.  Because the
engines are deterministic per seed, so is every timestamp, which makes
a trace a byte-stable artifact: two runs of the same seed export the
same Chrome-trace JSON down to the last float.

Tracing is off when the tracer is ``None``, the default everywhere.
Instrumentation sites across the engines guard with a single
``if tracer is not None:`` check, so a disabled tracer costs one branch
at event-emission sites that are already off the inner per-page loop —
the frozen trace/plan corpora are unaffected (``benchmarks/e2e`` prices
the tracer on and off).

Tracks name the timeline a record belongs to (``task:io0``,
``tenant:olap``, ``disk:2``, ``optimizer`` …); the Chrome exporter maps
each distinct track to its own thread lane, so Perfetto shows one lane
per task/tenant/disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ObsError

#: Category and track of every :meth:`Tracer.counter` sample.
COUNTER_CAT = "counter"
COUNTER_TRACK = "counters"


@dataclass(slots=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        kind: ``"span"`` (has a duration), ``"instant"`` (a point in
            time) or ``"counter"`` (a sampled value).
        name: event label (shown on the slice in Perfetto).
        cat: category tag (``task``, ``adjust``, ``admission``,
            ``fault``, ``optimizer`` …) used for filtering and the
            summary table.
        track: timeline this event belongs to; one Chrome thread lane
            per distinct track.
        start: virtual-time start, seconds.
        dur: duration in virtual seconds (spans only; 0 otherwise).
        value: sampled value (counters only; 0 otherwise).
        args: optional extra payload exported into the Chrome ``args``.
    """

    kind: str
    name: str
    cat: str
    track: str
    start: float
    dur: float = 0.0
    value: float = 0.0
    args: dict | None = None


class Tracer:
    """Collects trace events for one (or several back-to-back) runs.

    The tracer never mutates engine state and never reads wall clock:
    callers stamp every record with the simulated time they already
    hold, so enabling tracing cannot perturb a schedule — the
    instrumentation tests replay the frozen trace corpus with a live
    tracer attached and assert byte-identical results.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __bool__(self) -> bool:
        """A tracer is truthy even while empty (``__len__`` would say 0)."""
        return True

    def __len__(self) -> int:
        """Number of recorded events."""
        return len(self.events)

    # -- recording ---------------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        t: float,
        dur: float,
        track: str,
        cat: str = "sim",
        args: dict | None = None,
    ) -> None:
        """Record a completed span ``[t, t + dur]`` on ``track``."""
        if dur < 0:
            raise ObsError(f"span {name!r} has negative duration {dur!r}")
        self.events.append(
            TraceEvent(
                kind="span",
                name=name,
                cat=cat,
                track=track,
                start=t,
                dur=dur,
                args=args,
            )
        )

    def instant(
        self,
        name: str,
        *,
        t: float,
        track: str,
        cat: str = "sim",
        args: dict | None = None,
    ) -> None:
        """Record a point-in-time event at ``t`` on ``track``."""
        self.events.append(
            TraceEvent(
                kind="instant",
                name=name,
                cat=cat,
                track=track,
                start=t,
                args=args,
            )
        )

    def counter(
        self,
        name: str,
        *,
        t: float,
        value: float,
    ) -> None:
        """Record one sample of a time-varying quantity.

        Every sample goes to category :data:`COUNTER_CAT` on track
        :data:`COUNTER_TRACK`.
        """
        self.events.append(
            TraceEvent(
                kind="counter",
                name=name,
                cat=COUNTER_CAT,
                track=COUNTER_TRACK,
                start=t,
                value=value,
            )
        )

    # -- views -------------------------------------------------------------------

    def by_category(self) -> dict[str, list[TraceEvent]]:
        """Events grouped by category, insertion order preserved."""
        grouped: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.cat, []).append(event)
        return grouped

    def tracks(self) -> list[str]:
        """Distinct track names in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track)
        return list(seen)

    def clear(self) -> None:
        """Drop every recorded event."""
        self.events.clear()

