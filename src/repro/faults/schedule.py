"""Fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is a plain, ordered list of fault events — the
*plan* of a chaos run.  It is deliberately dumb: no randomness, no
engine knowledge.  Determinism comes from here being pure data; the
:class:`~repro.faults.injector.FaultInjector` turns the plan into timed
engine callbacks.  Each fault type answers the injector's two questions
itself — :meth:`fires` (which instants, handled by which injector
method) and :meth:`spent` (has a run resumed at this clock already
lived through it) — so nobody dispatches on the type.

Four fault kinds, mirroring what the XPRS adjustment protocol must
survive (ISSUE: robustness):

* :class:`DiskDegradation` — a per-disk bandwidth multiplier over an
  interval (``factor = 0.5`` halves every service rate of that disk).
* :class:`DiskStall` — a disk stops dispatching new requests for a
  window (an in-flight request completes normally).
* :class:`SlaveCrash` — one slave backend of a running task dies
  mid-page; the master must restart its stride so no page is lost.
* :class:`MessageFault` — the next master/slave protocol leg at or
  after ``at`` is dropped (never delivered; the master's timeout must
  abort the round) or delayed by ``extra`` seconds.

Schedules can be written by hand, loaded from a JSON file
(:func:`load_schedule`), taken from a named preset
(:func:`preset_schedule`) or drawn from a seeded generator
(:func:`random_schedule`) for property tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from ..errors import FaultError

_EPS = 1e-12


class _Fault:
    """What the injector asks of every fault type."""

    def fires(self, injector) -> tuple:
        """``(instant, injector handler)`` pairs to arm, in arming
        order.  None by default: a :class:`MessageFault` is consumed
        lazily, by the first protocol leg sent at or after it."""
        return ()

    def spent(self, now: float) -> bool:
        """Did a run checkpointed at ``now`` already consume this fault?

        Never, by default: a deadline firing on a long-gone task is a
        logged no-op, and the injector drops the message faults itself.
        """
        return False


class _Window(_Fault):
    """Spent only once its *end* has passed — a window straddling the
    checkpoint re-arms and covers its remainder."""

    def spent(self, now: float) -> bool:
        return self.end <= now + _EPS


class _Instant(_Fault):
    """Spent once its instant has passed."""

    def spent(self, now: float) -> bool:
        return self.at <= now + _EPS


@dataclass(frozen=True)
class DiskDegradation(_Window):
    """Scale one disk's bandwidth by ``factor`` during an interval."""

    disk: int
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise FaultError("degrade: disk must be >= 0")
        if self.start < 0 or self.duration <= 0:
            raise FaultError("degrade: need start >= 0 and duration > 0")
        if not 0.0 < self.factor <= 1.0:
            raise FaultError("degrade: factor must be in (0, 1]")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def fires(self, injector) -> tuple:
        return (
            (self.start, injector.begin_degradation),
            (self.end, injector.end_degradation),
        )


@dataclass(frozen=True)
class DiskStall(_Window):
    """One disk dispatches nothing during ``[at, at + duration)``."""

    disk: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.disk < 0:
            raise FaultError("stall: disk must be >= 0")
        if self.at < 0 or self.duration <= 0:
            raise FaultError("stall: need at >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.at + self.duration

    def fires(self, injector) -> tuple:
        return ((self.at, injector.begin_stall),)


@dataclass(frozen=True)
class SlaveCrash(_Instant):
    """Kill one active slave backend at time ``at``.

    Attributes:
        at: when the crash fires.
        task: name of the task whose slave dies; ``None`` picks a task
            deterministically from the injector's seeded RNG.
        slave_index: index into the task's active (non-retired) slaves,
            taken modulo their count; ``None`` picks one from the RNG.
    """

    at: float
    task: str | None = None
    slave_index: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError("crash: at must be >= 0")

    def fires(self, injector) -> tuple:
        return ((self.at, injector.crash_slave),)


@dataclass(frozen=True)
class MessageFault(_Fault):
    """Drop or delay the next protocol message at or after ``at``.

    Attributes:
        at: earliest simulated time this fault can claim a message.
        kind: ``"drop"`` (the leg is never delivered) or ``"delay"``.
        extra: added latency in seconds (``delay`` only).
    """

    at: float
    kind: str = "drop"
    extra: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError("message: at must be >= 0")
        if self.kind not in ("drop", "delay"):
            raise FaultError(f"message: unknown kind {self.kind!r}")
        if self.kind == "delay" and self.extra <= 0:
            raise FaultError("message: delay needs extra > 0")


@dataclass(frozen=True)
class MasterCrash(_Instant):
    """The whole engine dies at time ``at``.

    Unlike a :class:`SlaveCrash` (which the master repairs in-line),
    a master crash ends the run: the engine raises
    :class:`~repro.errors.MasterCrashError` out of ``run()``.  Only the
    recovery harness (:func:`repro.recovery.run_with_recovery`) can
    continue — by resuming from the last checkpoint, or from scratch
    when checkpointing is off.
    """

    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError("master-crash: at must be >= 0")

    def fires(self, injector) -> tuple:
        return ((self.at, injector.crash_master),)


@dataclass(frozen=True)
class QueryDeadline(_Fault):
    """Cancel one task cooperatively when it is unfinished at ``at``.

    The engine-level form of a deadline: when the task named ``task``
    has not completed by ``at``, the master cancels it at a clean event
    boundary — slaves released, in-flight adjustment rounds staled out,
    page conservation intact — and the fault log counts the cancel
    instead of wedging.

    Attributes:
        at: the absolute virtual-time deadline.
        task: name of the task under the deadline.
    """

    at: float
    task: str = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError("deadline: at must be >= 0")
        if not self.task:
            raise FaultError("deadline: a task name is required")

    def fires(self, injector) -> tuple:
        return ((self.at, injector.expire_deadline),)


Fault = (
    DiskDegradation
    | DiskStall
    | SlaveCrash
    | MessageFault
    | MasterCrash
    | QueryDeadline
)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, ordered plan of fault events."""

    faults: tuple[Fault, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def message_faults(self) -> tuple[MessageFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, MessageFault))

    @property
    def master_crashes(self) -> tuple[MasterCrash, ...]:
        return tuple(f for f in self.faults if isinstance(f, MasterCrash))

    def validate_against(self, n_disks: int) -> None:
        """Reject entries that are no fault type at all, and faults
        naming a disk outside ``[0, n_disks)``."""
        for fault in self.faults:
            if not isinstance(fault, _Fault):
                raise FaultError(f"unknown fault {fault!r}")
            disk = getattr(fault, "disk", None)
            if disk is not None and disk >= n_disks:
                raise FaultError(
                    f"fault names disk {disk} but the machine has {n_disks}"
                )


# ---------------------------------------------------------------------------
# parsing


_KIND_KEYS = {
    "degrade": ("disk", "start", "duration", "factor"),
    "stall": ("disk", "at", "duration"),
    "crash": ("at", "task", "slave_index"),
    "drop": ("at",),
    "delay": ("at", "extra"),
    "master-crash": ("at",),
    "deadline": ("at", "task"),
}


def fault_from_dict(raw: dict) -> Fault:
    """Build one fault from its JSON dict (see ``docs/FAULTS.md``)."""
    if not isinstance(raw, dict):
        raise FaultError(f"fault entry must be an object, got {raw!r}")
    kind = raw.get("kind")
    if kind not in _KIND_KEYS:
        raise FaultError(f"unknown fault kind: {kind!r}")
    unknown = set(raw) - set(_KIND_KEYS[kind]) - {"kind"}
    if unknown:
        raise FaultError(f"{kind}: unknown keys {sorted(unknown)}")
    args = {k: raw[k] for k in _KIND_KEYS[kind] if k in raw}
    try:
        if kind == "degrade":
            return DiskDegradation(**args)
        if kind == "stall":
            return DiskStall(**args)
        if kind == "crash":
            return SlaveCrash(**args)
        if kind == "drop":
            return MessageFault(kind="drop", **args)
        if kind == "master-crash":
            return MasterCrash(**args)
        if kind == "deadline":
            return QueryDeadline(**args)
        return MessageFault(kind="delay", **args)
    except TypeError as exc:
        raise FaultError(f"{kind}: {exc}") from None


def schedule_from_dicts(entries: list[dict]) -> FaultSchedule:
    """A schedule from a list of fault dicts."""
    return FaultSchedule(tuple(fault_from_dict(e) for e in entries))


def load_schedule(path: str) -> FaultSchedule:
    """Load a schedule from a JSON file: ``{"faults": [...]}``."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise FaultError(f"cannot read fault schedule {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FaultError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or "faults" not in raw:
        raise FaultError(f'{path}: expected an object with a "faults" list')
    if not isinstance(raw["faults"], list):
        raise FaultError(f'{path}: "faults" must be a list')
    return schedule_from_dicts(raw["faults"])


# ---------------------------------------------------------------------------
# presets and generators


#: The named schedules :func:`preset_schedule` builds, in ``--help`` order.
FAULT_PRESETS = ("slow-disk", "stall", "crashes", "messages", "mixed", "crash-heavy")


def preset_schedule(name: str, *, horizon: float = 60.0) -> FaultSchedule:
    """A named, fully deterministic schedule scaled to ``horizon`` seconds.

    Presets:
        ``slow-disk`` — disk 0 at half bandwidth from ``horizon/3`` on.
        ``stall``     — two transient stalls on disks 0 and 1.
        ``crashes``   — three slave crashes spread over the run.
        ``messages``  — dropped and delayed protocol legs.
        ``mixed``     — all of the above at once.
        ``crash-heavy`` — three master crashes plus slave crashes and a
        degradation: the recovery benchmark's schedule.
    """
    if name not in FAULT_PRESETS:
        raise FaultError(
            f"unknown preset {name!r}; choose from {sorted(FAULT_PRESETS)}"
        )
    t = horizon
    table: dict[str, tuple[Fault, ...]] = {
        "slow-disk": (
            DiskDegradation(disk=0, start=t / 3, duration=t, factor=0.5),
        ),
        "stall": (
            DiskStall(disk=0, at=t / 4, duration=t / 20),
            DiskStall(disk=1, at=t / 2, duration=t / 20),
        ),
        "crashes": (
            SlaveCrash(at=t / 5),
            SlaveCrash(at=2 * t / 5),
            SlaveCrash(at=3 * t / 5),
        ),
        "messages": (
            MessageFault(at=t / 10, kind="drop"),
            MessageFault(at=t / 4, kind="delay", extra=t / 100),
            MessageFault(at=t / 2, kind="drop"),
        ),
    }
    table["mixed"] = (
        table["slow-disk"]
        + table["stall"][:1]
        + table["crashes"][:2]
        + table["messages"]
    )
    # The recovery benchmark's schedule: three whole-engine crashes late
    # in the run (where a restart-from-scratch hurts most) on top of the
    # usual slave crashes and a mid-run degradation.
    table["crash-heavy"] = (
        DiskDegradation(disk=0, start=t / 4, duration=t / 2, factor=0.6),
        SlaveCrash(at=t / 6),
        SlaveCrash(at=t / 2),
        MasterCrash(at=0.35 * t),
        MasterCrash(at=0.6 * t),
        MasterCrash(at=0.85 * t),
    )
    return FaultSchedule(table[name])


def random_schedule(
    seed: int,
    *,
    horizon: float = 60.0,
    n_disks: int = 4,
    task_names: tuple[str, ...] = (),
) -> FaultSchedule:
    """A seeded random schedule of one to eight faults, for property tests.

    Same ``(seed, horizon, n_disks, task_names)`` always yields the same
    schedule.
    """
    rng = random.Random(seed)
    faults: list[Fault] = []
    for __ in range(rng.randint(1, 8)):
        kind = rng.choice(("degrade", "stall", "crash", "drop", "delay"))
        at = rng.uniform(0.0, horizon)
        if kind == "degrade":
            faults.append(
                DiskDegradation(
                    disk=rng.randrange(n_disks),
                    start=at,
                    duration=rng.uniform(horizon / 20, horizon / 2),
                    factor=rng.uniform(0.25, 0.9),
                )
            )
        elif kind == "stall":
            faults.append(
                DiskStall(
                    disk=rng.randrange(n_disks),
                    at=at,
                    duration=rng.uniform(horizon / 100, horizon / 10),
                )
            )
        elif kind == "crash":
            task = rng.choice(task_names) if task_names and rng.random() < 0.7 else None
            faults.append(SlaveCrash(at=at, task=task))
        elif kind == "drop":
            faults.append(MessageFault(at=at, kind="drop"))
        else:
            faults.append(MessageFault(at=at, kind="delay", extra=rng.uniform(0.01, 0.2)))
    faults.sort(key=_fault_time)
    return FaultSchedule(tuple(faults))


def with_deadlines(
    schedule: FaultSchedule,
    seed: int,
    *,
    horizon: float,
    task_names: tuple[str, ...],
) -> FaultSchedule:
    """Layer one or two seeded :class:`QueryDeadline` events onto a schedule.

    A *separate* generator on a separate RNG so the draw sequence of
    :func:`random_schedule` (pinned by the frozen trace corpus) is
    untouched.  Deadlines land in the middle half of the horizon, where
    the named tasks are typically still running.
    """
    if not task_names:
        raise FaultError("with_deadlines: task_names must be non-empty")
    rng = random.Random(f"deadlines:{seed}")
    extra: list[Fault] = []
    for __ in range(rng.randint(1, 2)):
        extra.append(
            QueryDeadline(
                at=rng.uniform(horizon / 4, 3 * horizon / 4),
                task=rng.choice(task_names),
            )
        )
    faults = list(schedule.faults) + extra
    faults.sort(key=_fault_time)
    return FaultSchedule(tuple(faults))


def _fault_time(fault: Fault) -> float:
    return getattr(fault, "start", None) or getattr(fault, "at", 0.0)
