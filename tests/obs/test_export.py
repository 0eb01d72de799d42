"""Tests for the Chrome / flat-JSON / summary exporters."""

import json

from repro.obs import (
    Tracer,
    chrome_events,
    chrome_json,
    flat_events,
    flat_json,
    summary_table,
)


def sample_tracer():
    tracer = Tracer()
    tracer.span(
        "io0", t=0.0, dur=2.5, track="task:io0", cat="task",
        args={"pages": 300},
    )
    tracer.instant("crash slave 2", t=1.0, track="task:io0", cat="fault")
    tracer.counter("running_tasks", t=0.5, value=3.0)
    return tracer


class TestChromeExport:
    def test_every_record_has_required_fields(self):
        for record in chrome_events(sample_tracer()):
            for key in ("ph", "ts", "pid", "tid"):
                assert key in record, f"{record['name']} lacks {key}"

    def test_metadata_names_each_track(self):
        records = chrome_events(sample_tracer())
        names = [r for r in records if r["name"] == "thread_name"]
        labelled = {r["args"]["name"] for r in names}
        assert labelled == {"task:io0", "counters"}
        assert any(r["name"] == "process_name" for r in records)

    def test_phases_and_microsecond_scaling(self):
        records = chrome_events(sample_tracer())
        span = next(r for r in records if r.get("ph") == "X")
        assert span["ts"] == 0.0
        assert span["dur"] == 2.5e6
        assert span["args"]["pages"] == 300
        instant = next(r for r in records if r.get("ph") == "i")
        assert instant["ts"] == 1.0e6
        assert instant["s"] == "t"
        counter = next(r for r in records if r.get("ph") == "C")
        assert counter["args"]["value"] == 3.0

    def test_distinct_tracks_get_distinct_tids(self):
        records = chrome_events(sample_tracer())
        span = next(r for r in records if r.get("ph") == "X")
        counter = next(r for r in records if r.get("ph") == "C")
        assert span["tid"] != counter["tid"]

    def test_chrome_json_is_loadable_and_deterministic(self):
        tracer = sample_tracer()
        text = chrome_json(tracer)
        assert json.loads(text)
        assert text == chrome_json(tracer)


class TestFlatExport:
    def test_flat_events_round_trip(self):
        events = flat_events(sample_tracer())
        assert [e["kind"] for e in events] == ["span", "instant", "counter"]
        assert events[0]["dur"] == 2.5
        assert events[2]["value"] == 3.0

    def test_flat_json_includes_metrics_digest(self):
        digest = {"counters": {"sim.pages": 559}, "series": {}}
        payload = json.loads(flat_json(sample_tracer(), digest))
        assert len(payload["events"]) == 3
        assert payload["metrics"]["counters"]["sim.pages"] == 559

    def test_flat_json_without_metrics(self):
        payload = json.loads(flat_json(sample_tracer()))
        assert "metrics" not in payload


class TestSummaryTable:
    def test_counts_and_bounds_per_category(self):
        table = summary_table(sample_tracer())
        assert "3 events" in table
        assert "task" in table and "fault" in table and "counter" in table
        assert "2.5000" in table  # span seconds for the task category
