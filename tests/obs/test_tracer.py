"""Tests for the span tracer."""

import pytest

from repro.errors import ObsError, ReproError
from repro.obs import Tracer


class TestTracer:
    def test_span_records_all_fields(self):
        tracer = Tracer()
        tracer.span(
            "scan", t=1.5, dur=2.0, track="task:io0", cat="task",
            args={"pages": 10},
        )
        (event,) = tracer.events
        assert event.kind == "span"
        assert event.name == "scan"
        assert event.cat == "task"
        assert event.track == "task:io0"
        assert event.start == 1.5
        assert event.dur == 2.0
        assert event.args == {"pages": 10}

    def test_negative_duration_raises(self):
        with pytest.raises(ObsError):
            Tracer().span("bad", t=1.0, dur=-0.1, track="x")

    def test_obs_error_is_a_repro_error(self):
        # Callers catching the repo-wide base see obs failures too.
        assert issubclass(ObsError, ReproError)

    def test_instant_and_counter_kinds(self):
        tracer = Tracer()
        tracer.instant("crash", t=3.0, track="task:io0", cat="fault")
        tracer.counter("running", t=3.5, value=4.0)
        kinds = [e.kind for e in tracer.events]
        assert kinds == ["instant", "counter"]
        assert tracer.events[1].value == 4.0
        assert tracer.events[1].track == "counters"

    def test_truthiness_and_len(self):
        # An empty tracer is truthy: ``__bool__`` overrides ``__len__``.
        tracer = Tracer()
        assert tracer
        assert len(tracer) == 0
        tracer.instant("x", t=0.0, track="t")
        assert len(tracer) == 1

    def test_by_category_and_tracks(self):
        tracer = Tracer()
        tracer.instant("a", t=0.0, track="t1", cat="task")
        tracer.instant("b", t=1.0, track="t2", cat="fault")
        tracer.instant("c", t=2.0, track="t1", cat="task")
        grouped = tracer.by_category()
        assert sorted(grouped) == ["fault", "task"]
        assert len(grouped["task"]) == 2
        assert tracer.tracks() == ["t1", "t2"]

    def test_clear(self):
        tracer = Tracer()
        tracer.instant("x", t=0.0, track="t")
        tracer.clear()
        assert len(tracer) == 0

