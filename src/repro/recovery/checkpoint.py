"""Checkpoint snapshots of the micro engine's schedule state.

A :class:`Checkpoint` captures everything needed to resume a run
byte-deterministically from an adjustment-round boundary: pages served
per fragment, each slave's stride/interval position, disk head
positions, the balance-relevant accounting sums and the engine's RNG
state.  It deliberately captures *no* event-heap entries: at a round
boundary every live slave is either mid-page (its in-flight page is
re-read on resume, exactly like a crash replacement re-reads a dead
slave's page) or retired, so the heap is reconstructible.

Snapshots are plain frozen dataclasses of ints/floats/tuples —
:meth:`Checkpoint.to_dict` / :meth:`Checkpoint.from_dict` round-trip
through JSON losslessly (Python's float repr round-trips exactly).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import RecoveryError


@dataclass(frozen=True)
class SlaveSnapshot:
    """One slave backend's position at checkpoint time.

    Attributes:
        slave_id: the slave's id within its run.
        cursor: next page candidate (page partitioning).
        segments: ``(lo, hi, stride, residue)`` stride segments.
        intervals: ``(lo, hi)`` key intervals (range partitioning).
        retired: the slave has no more work.
        crashed: the slave was killed by fault injection (kept because
            its final cursor still feeds the maxpage computation).
        inflight: the page (or key) the slave was reading, or ``None``.
            A resumed engine re-reads it — the page never completed in
            the checkpointed world.
    """

    slave_id: int
    cursor: int
    segments: tuple[tuple[int, int, int, int], ...]
    intervals: tuple[tuple[int, int], ...]
    retired: bool
    crashed: bool
    inflight: int | None


@dataclass(frozen=True)
class TaskSnapshot:
    """One running task's schedule state at checkpoint time.

    Tasks are identified by *name* — task ids regenerate on resume —
    so checkpointed workloads must use unique task names (the engine's
    workload generators always do).
    """

    name: str
    parallelism: int
    started_at: float
    pages_done: int
    next_slave_id: int
    block_base: int
    history: tuple[tuple[float, float], ...]
    #: Page -> physical page permutation for RANDOM scans; ``None``
    #: means the identity order (sequential scans), kept out of the
    #: snapshot to keep checkpoints small.
    order: tuple[int, ...] | None
    slaves: tuple[SlaveSnapshot, ...]


@dataclass(frozen=True)
class DiskSnapshot:
    """One disk's head/stream memory and accumulated accounting."""

    streams: tuple[int, ...]
    busy_time: float
    sequential: int
    almost_sequential: int
    random: int


@dataclass(frozen=True)
class RecordSnapshot:
    """One already-completed task's record (replayed into the resume)."""

    name: str
    started_at: float
    finished_at: float
    history: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Checkpoint:
    """A complete resumable snapshot of one micro-engine run."""

    taken_at: float
    seed: int
    rng_state: tuple
    block_cursor: int
    #: Redundant with ``disks`` (the per-regime counters, summed) on
    #: purpose: the engine refuses to resume when the two disagree.
    io_count: int
    cpu_busy_time: float
    adjustments: int
    peak_memory: float
    measured_mult: tuple[float, ...]
    running: tuple[TaskSnapshot, ...]
    completed: tuple[RecordSnapshot, ...]
    disks: tuple[DiskSnapshot, ...]

    def to_dict(self) -> dict:
        """A JSON-serializable dict (lossless round-trip)."""
        raw = asdict(self)
        raw["rng_state"] = _encode_rng(self.rng_state)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "Checkpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output."""
        if not isinstance(raw, dict):
            raise RecoveryError(f"checkpoint must be an object, got {raw!r}")
        try:
            return cls(
                taken_at=float(raw["taken_at"]),
                seed=int(raw["seed"]),
                rng_state=_decode_rng(raw["rng_state"]),
                block_cursor=int(raw["block_cursor"]),
                io_count=int(raw["io_count"]),
                cpu_busy_time=float(raw["cpu_busy_time"]),
                adjustments=int(raw["adjustments"]),
                peak_memory=float(raw["peak_memory"]),
                measured_mult=tuple(float(m) for m in raw["measured_mult"]),
                running=tuple(
                    TaskSnapshot(
                        name=t["name"],
                        parallelism=int(t["parallelism"]),
                        started_at=float(t["started_at"]),
                        pages_done=int(t["pages_done"]),
                        next_slave_id=int(t["next_slave_id"]),
                        block_base=int(t["block_base"]),
                        history=_pairs(t["history"]),
                        order=(
                            tuple(int(p) for p in t["order"])
                            if t["order"] is not None
                            else None
                        ),
                        slaves=tuple(
                            SlaveSnapshot(
                                slave_id=int(s["slave_id"]),
                                cursor=int(s["cursor"]),
                                segments=tuple(
                                    (int(a), int(b), int(c), int(d))
                                    for a, b, c, d in s["segments"]
                                ),
                                intervals=tuple(
                                    (int(a), int(b))
                                    for a, b in s["intervals"]
                                ),
                                retired=bool(s["retired"]),
                                crashed=bool(s["crashed"]),
                                inflight=(
                                    int(s["inflight"])
                                    if s["inflight"] is not None
                                    else None
                                ),
                            )
                            for s in t["slaves"]
                        ),
                    )
                    for t in raw["running"]
                ),
                completed=tuple(
                    RecordSnapshot(
                        name=r["name"],
                        started_at=float(r["started_at"]),
                        finished_at=float(r["finished_at"]),
                        history=_pairs(r["history"]),
                    )
                    for r in raw["completed"]
                ),
                disks=tuple(
                    DiskSnapshot(
                        streams=tuple(int(b) for b in d["streams"]),
                        busy_time=float(d["busy_time"]),
                        sequential=int(d["sequential"]),
                        almost_sequential=int(d["almost_sequential"]),
                        random=int(d["random"]),
                    )
                    for d in raw["disks"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(f"malformed checkpoint: {exc!r}") from None

    @property
    def pages_done(self) -> int:
        """Pages completed across all running tasks at capture time."""
        return sum(t.pages_done for t in self.running)


def _pairs(raw) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, b in raw)


def _encode_rng(state: tuple) -> list:
    # random.Random.getstate() -> (version, tuple-of-ints, gauss_next)
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _decode_rng(raw) -> tuple:
    version, internal, gauss = raw
    return (version, tuple(int(x) for x in internal), gauss)
