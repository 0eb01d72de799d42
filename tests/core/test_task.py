"""Tests for the scheduler task model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import IOPattern, Task, make_task
from repro.core.ids import id_scope, task_ids
from repro.errors import SchedulingError


class TestTask:
    def test_io_rate_is_d_over_t(self):
        task = Task("t", seq_time=10.0, io_count=500.0)
        assert task.io_rate == 50.0

    def test_defaults(self):
        task = Task("t", seq_time=1.0, io_count=1.0)
        assert task.io_pattern == IOPattern.SEQUENTIAL
        assert task.arrival_time == 0.0
        assert task.depends_on == frozenset()

    def test_unique_ids(self):
        a = Task("a", seq_time=1.0, io_count=1.0)
        b = Task("b", seq_time=1.0, io_count=1.0)
        assert a.task_id != b.task_id

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seq_time": 0.0, "io_count": 1.0},
            {"seq_time": -1.0, "io_count": 1.0},
            {"seq_time": 1.0, "io_count": -1.0},
            {"seq_time": 1.0, "io_count": 1.0, "arrival_time": -0.5},
            {"seq_time": 1.0, "io_count": 1.0, "memory_bytes": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(SchedulingError):
            Task("bad", **kwargs)

    def test_with_arrival_copies(self):
        task = Task("t", seq_time=5.0, io_count=10.0)
        later = task.with_arrival(3.0)
        assert later.arrival_time == 3.0
        assert later.seq_time == 5.0
        assert task.arrival_time == 0.0

    def test_with_dependencies_keeps_id(self):
        task = Task("t", seq_time=5.0, io_count=10.0)
        dep = Task("d", seq_time=1.0, io_count=1.0)
        wired = task.with_dependencies([dep.task_id])
        assert wired.task_id == task.task_id
        assert wired.depends_on == {dep.task_id}

    def test_copies_equal_dataclasses_replace_field_for_field(self):
        import dataclasses

        task = Task(
            "t",
            seq_time=5.0,
            io_count=10.0,
            io_pattern=IOPattern.RANDOM,
            arrival_time=2.0,
            depends_on=frozenset({7}),
            memory_bytes=64.0,
            payload=object(),
        )
        for copy, change in (
            (task.with_dependencies(iter([3, 4])), {"depends_on": frozenset({3, 4})}),
            (task.with_memory(128.0), {"memory_bytes": 128.0}),
        ):
            expected = dataclasses.replace(task, **change)
            for f in dataclasses.fields(Task):
                assert getattr(copy, f.name) == getattr(expected, f.name), f.name
            assert copy.payload is task.payload

    def test_copies_still_validate(self):
        task = Task("t", seq_time=5.0, io_count=10.0)
        with pytest.raises(SchedulingError):
            task.with_memory(-1.0)
        with pytest.raises(SchedulingError):
            task.with_arrival(-1)


def _full_task(**overrides):
    kwargs = dict(
        seq_time=7.0,
        io_count=0.1,
        io_pattern=IOPattern.RANDOM,
        arrival_time=2.0,
        depends_on=frozenset({7}),
        memory_bytes=64.0,
        payload=object(),
    )
    kwargs.update(overrides)
    return Task("t", **kwargs)


class TestConstructionPaths:
    """The constructor and every ``with_*`` copy build the same kind of task."""

    def test_with_arrival_draws_a_fresh_id_and_equals_replace_otherwise(self):
        import dataclasses

        task = _full_task()
        with id_scope():
            later = task.with_arrival(5.0)
            assert task_ids() == later.task_id + 1
        expected = dataclasses.replace(task, arrival_time=5.0, task_id=later.task_id)
        for f in dataclasses.fields(Task):
            assert getattr(later, f.name) == getattr(expected, f.name), f.name
        assert later == expected
        assert later.task_id != task.task_id

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: t,
            lambda t: t.with_arrival(9.0),
            lambda t: t.with_dependencies([1, 2]),
            lambda t: t.with_memory(1.0),
            lambda t: __import__("dataclasses").replace(t, name="u"),
            lambda t: __import__("copy").copy(t),
            lambda t: __import__("pickle").loads(__import__("pickle").dumps(t)),
        ],
        ids=["ctor", "arrival", "deps", "memory", "replace", "copy", "pickle"],
    )
    def test_io_rate_is_bit_equal_on_every_path(self, build):
        # 0.1 * (1 / 7.0) is one ulp off 0.1 / 7.0, so a re-derivation shows.
        task = build(_full_task(payload=None))
        assert task.io_rate == task.io_count / task.seq_time
        assert task.io_rate.hex() == (0.1 / 7.0).hex()
        assert "io_rate" in task.__dict__

    def test_payload_keeps_its_identity(self):
        task = _full_task()
        for copy in (
            task.with_arrival(1.0),
            task.with_dependencies([3]),
            task.with_memory(8.0),
        ):
            assert copy.payload is task.payload

    @pytest.mark.parametrize("how", ["pickle", "copy"])
    def test_round_trip_is_equal_with_an_equal_hash(self, how):
        import copy
        import pickle

        task = _full_task(payload=None)
        back = pickle.loads(pickle.dumps(task)) if how == "pickle" else copy.copy(task)
        assert back == task
        assert hash(back) == hash(task)
        assert back.__dict__ == task.__dict__

    def test_still_frozen(self):
        import dataclasses

        task = _full_task()
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.seq_time = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.with_arrival(1.0).arrival_time = 2.0

    def test_a_rejected_task_still_consumes_its_id(self):
        with id_scope():
            with pytest.raises(SchedulingError):
                Task("bad", seq_time=0.0, io_count=1.0)
            assert Task("ok", seq_time=1.0, io_count=1.0).task_id == 1


class TestMakeTask:
    def test_from_io_rate(self):
        task = make_task("t", io_rate=40.0, seq_time=8.0)
        assert task.io_rate == pytest.approx(40.0)
        assert task.io_count == pytest.approx(320.0)

    def test_zero_rate_allowed(self):
        task = make_task("pure-cpu", io_rate=0.0, seq_time=2.0)
        assert task.io_rate == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(SchedulingError):
            make_task("bad", io_rate=-1.0, seq_time=1.0)

    @given(
        st.floats(min_value=0.01, max_value=1000),
        st.floats(min_value=0.01, max_value=1000),
    )
    def test_io_rate_roundtrip(self, rate, seq_time):
        task = make_task("t", io_rate=rate, seq_time=seq_time)
        assert task.io_rate == pytest.approx(rate)
