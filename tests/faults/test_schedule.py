"""Tests for fault schedules: dataclasses, parsing, presets, generators."""

import json

import pytest

from repro.errors import FaultError
from repro.faults import (
    DiskDegradation,
    DiskStall,
    FaultSchedule,
    MessageFault,
    SlaveCrash,
    fault_from_dict,
    load_schedule,
    preset_schedule,
    random_schedule,
    schedule_from_dicts,
)


def _of(schedule, kind):
    """The faults of one kind, in schedule order."""
    return [f for f in schedule if isinstance(f, kind)]


class TestFaultValidation:
    def test_degradation_rejects_bad_factor(self):
        with pytest.raises(FaultError, match="factor"):
            DiskDegradation(disk=0, start=0.0, duration=1.0, factor=0.0)
        with pytest.raises(FaultError, match="factor"):
            DiskDegradation(disk=0, start=0.0, duration=1.0, factor=1.5)

    def test_degradation_rejects_negative_times(self):
        with pytest.raises(FaultError):
            DiskDegradation(disk=0, start=-1.0, duration=1.0, factor=0.5)
        with pytest.raises(FaultError):
            DiskDegradation(disk=0, start=0.0, duration=0.0, factor=0.5)

    def test_degradation_end(self):
        fault = DiskDegradation(disk=1, start=2.0, duration=3.0, factor=0.5)
        assert fault.end == 5.0

    def test_stall_rejects_bad_disk_and_window(self):
        with pytest.raises(FaultError):
            DiskStall(disk=-1, at=0.0, duration=1.0)
        with pytest.raises(FaultError):
            DiskStall(disk=0, at=0.0, duration=0.0)

    def test_crash_rejects_negative_time(self):
        with pytest.raises(FaultError):
            SlaveCrash(at=-0.1)

    def test_message_rejects_unknown_kind_and_zero_delay(self):
        with pytest.raises(FaultError, match="kind"):
            MessageFault(at=0.0, kind="mangle")
        with pytest.raises(FaultError, match="extra"):
            MessageFault(at=0.0, kind="delay", extra=0.0)


class TestFaultSchedule:
    def test_filtered_views(self):
        schedule = FaultSchedule(
            (
                DiskDegradation(disk=0, start=0.0, duration=1.0, factor=0.5),
                DiskStall(disk=1, at=0.5, duration=0.2),
                SlaveCrash(at=1.0),
                MessageFault(at=2.0, kind="drop"),
            )
        )
        assert len(schedule) == 4
        assert len(_of(schedule, DiskDegradation)) == 1
        assert len(_of(schedule, DiskStall)) == 1
        assert len(_of(schedule, SlaveCrash)) == 1
        assert len(schedule.message_faults) == 1

    def test_validate_against_rejects_out_of_range_disk(self):
        schedule = FaultSchedule(
            (DiskDegradation(disk=4, start=0.0, duration=1.0, factor=0.5),)
        )
        with pytest.raises(FaultError, match="disk 4"):
            schedule.validate_against(4)
        schedule.validate_against(5)


class TestParsing:
    def test_fault_from_dict_all_kinds(self):
        assert isinstance(
            fault_from_dict(
                {"kind": "degrade", "disk": 0, "start": 1.0, "duration": 2.0, "factor": 0.5}
            ),
            DiskDegradation,
        )
        assert isinstance(
            fault_from_dict({"kind": "stall", "disk": 1, "at": 0.5, "duration": 0.1}),
            DiskStall,
        )
        crash = fault_from_dict({"kind": "crash", "at": 1.0, "task": "io0"})
        assert isinstance(crash, SlaveCrash)
        assert crash.task == "io0"
        drop = fault_from_dict({"kind": "drop", "at": 3.0})
        assert drop.kind == "drop"
        delay = fault_from_dict({"kind": "delay", "at": 3.0, "extra": 0.1})
        assert delay.extra == 0.1

    def test_unknown_kind_and_keys_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor", "at": 0.0})
        with pytest.raises(FaultError, match="unknown keys"):
            fault_from_dict({"kind": "drop", "at": 0.0, "severity": 11})
        with pytest.raises(FaultError):
            fault_from_dict("not-a-dict")

    def test_missing_required_field_is_a_fault_error(self):
        with pytest.raises(FaultError, match="degrade"):
            fault_from_dict({"kind": "degrade", "disk": 0})

    def test_schedule_from_dicts(self):
        schedule = schedule_from_dicts(
            [{"kind": "drop", "at": 1.0}, {"kind": "crash", "at": 2.0}]
        )
        assert len(schedule) == 2

    def test_load_schedule_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            json.dumps(
                {
                    "faults": [
                        {
                            "kind": "degrade",
                            "disk": 0,
                            "start": 1.0,
                            "duration": 5.0,
                            "factor": 0.5,
                        },
                        {"kind": "crash", "at": 1.5, "task": "io0"},
                    ]
                }
            )
        )
        schedule = load_schedule(str(path))
        assert len(schedule) == 2
        assert _of(schedule, DiskDegradation)[0].factor == 0.5
        assert _of(schedule, SlaveCrash)[0].task == "io0"

    def test_load_schedule_errors(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read"):
            load_schedule(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultError, match="not valid JSON"):
            load_schedule(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"events": []}')
        with pytest.raises(FaultError, match='"faults"'):
            load_schedule(str(wrong))
        notalist = tmp_path / "notalist.json"
        notalist.write_text('{"faults": 3}')
        with pytest.raises(FaultError, match="must be a list"):
            load_schedule(str(notalist))


class TestPresets:
    @pytest.mark.parametrize(
        "name", ["slow-disk", "stall", "crashes", "messages", "mixed"]
    )
    def test_presets_scale_to_horizon(self, name):
        schedule = preset_schedule(name, horizon=30.0)
        assert len(schedule) >= 1
        for fault in schedule:
            t = getattr(fault, "start", None) or getattr(fault, "at", 0.0)
            assert 0.0 <= t <= 30.0

    def test_mixed_has_every_kind(self):
        mixed = preset_schedule("mixed", horizon=10.0)
        assert _of(mixed, DiskDegradation) and _of(mixed, DiskStall)
        assert _of(mixed, SlaveCrash) and mixed.message_faults

    def test_unknown_preset(self):
        with pytest.raises(FaultError, match="unknown preset"):
            preset_schedule("earthquake")


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        a = random_schedule(7, horizon=20.0, task_names=("io0",))
        b = random_schedule(7, horizon=20.0, task_names=("io0",))
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        schedules = {random_schedule(s, horizon=20.0) for s in range(10)}
        assert len(schedules) > 1

    def test_respects_disk_count(self):
        for seed in range(20):
            schedule = random_schedule(seed, n_disks=2)
            schedule.validate_against(2)

    def test_sorted_by_time(self):
        for seed in range(10):
            schedule = random_schedule(seed, horizon=20.0)
            times = [
                getattr(f, "start", None) or getattr(f, "at", 0.0)
                for f in schedule
            ]
            assert times == sorted(times)
