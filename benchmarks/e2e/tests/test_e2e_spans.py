"""Span-tree self time and wrapper hygiene."""

import json

import e2e_spans as S


def _span(name, start, end, parent, pass_id=1):
    return [name, start, end, parent, pass_id]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("optimizer.choose_plan", 0.0, 10.0, -1),
        _span("sim.fluid.run", 1.0, 5.0, 0),
        _span("core.decide", 2.0, 3.0, 1),
        _span("sim.fluid.run", 6.0, 8.0, 0),
    ]
    assert S.self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    totals = S.layer_totals(spans, S.self_times(spans))[1]
    assert totals == {
        "optimizer.choose_plan": 4.0,
        "sim.fluid.run": 5.0,
        "core.decide": 1.0,
    }
    # Self times partition the root span: nothing is charged twice.
    assert sum(S.self_times(spans)) == 10.0


class _Engine:
    def run(self, depth):
        return self.step(depth)

    def step(self, depth):
        return depth if depth == 0 else self.step(depth - 1)


def test_wrappers_record_a_tree_and_are_removed():
    original_run, original_step = vars(_Engine)["run"], vars(_Engine)["step"]
    recorder = S.SpanRecorder()
    recorder.pass_id = 7
    recorder.wrap(_Engine, "run", "engine.run")
    recorder.wrap(_Engine, "step", "engine.step")
    try:
        assert _Engine().run(2) == 0
    finally:
        recorder.restore()
    assert vars(_Engine)["run"] is original_run
    assert vars(_Engine)["step"] is original_step
    names = [s[S.NAME] for s in recorder.spans]
    parents = [s[S.PARENT] for s in recorder.spans]
    assert names == ["engine.run"] + ["engine.step"] * 3
    assert parents == [-1, 0, 1, 2]
    assert all(s[S.PASS] == 7 and s[S.END] >= s[S.START] for s in recorder.spans)
    # Calls after restore() leave no spans behind.
    _Engine().run(1)
    assert len(recorder.spans) == 4


def test_wrappers_are_removed_when_the_call_raises():
    class Boom:
        def run(self):
            raise RuntimeError("boom")

    original = vars(Boom)["run"]
    recorder = S.SpanRecorder()
    recorder.wrap(Boom, "run", "boom.run")
    try:
        Boom().run()
    except RuntimeError:
        pass
    finally:
        recorder.restore()
    assert vars(Boom)["run"] is original
    assert recorder.spans[0][S.END] >= recorder.spans[0][S.START] > 0.0
    assert recorder._stack == []


def test_chrome_trace_is_loadable():
    spans = [_span("sim.micro.run", 5.0, 5.5, -1, 2), _span("core.decide", 5.1, 5.2, 0, 2)]
    events = json.loads(S.chrome_trace(spans))
    assert [e["name"] for e in events] == ["sim.micro.run", "core.decide"]
    assert all({"ph", "ts", "pid", "tid", "dur"} <= e.keys() for e in events)
    assert events[0]["ts"] == 0.0 and events[0]["tid"] == 2
