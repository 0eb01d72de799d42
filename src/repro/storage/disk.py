"""A single-disk timing and accounting model.

The disk does not store data (pages live in the heap files); it models
*when* an io request completes and *counts* requests, which is what the
paper's scheduling theory consumes.  Three access regimes from the
paper's measurements (Section 3):

* strictly sequential — the request's block number immediately follows
  the last block served (97 ios/s on the paper's disks);
* almost sequential — the request is near but not exactly the next
  block, e.g. parallel backends racing through one relation out of
  order (60 ios/s);
* random — anything else (35 ios/s).

:meth:`Disk.service_time` classifies a request against the last-served
block and returns the service time; :class:`DiskCounters` accumulates
per-regime counts so calibration benches can re-derive the bandwidth
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DiskProfile
from ..errors import ConfigError

#: How far (in blocks) past the last request still counts as "almost
#: sequential".  Parallel scans with n slaves land within roughly n
#: blocks of each other; the paper's 60 ios/s regime.
ALMOST_SEQ_WINDOW = 16


@dataclass
class DiskCounters:
    """Request counts per access regime."""

    sequential: int = 0
    almost_sequential: int = 0
    random: int = 0

    @property
    def total(self) -> int:
        return self.sequential + self.almost_sequential + self.random

    def reset(self) -> None:
        """Zero all counters."""
        self.sequential = 0
        self.almost_sequential = 0
        self.random = 0


@dataclass
class Disk:
    """One disk of the array.

    The disk remembers the positions of the last few *streams* it has
    served (``stream_memory`` slots), modelling the drive/controller
    track buffer: continuing or resuming a recently-seen sequential
    stream is cheap even if another stream's request was served in
    between; only a request far from every remembered stream pays the
    full seek.

    Attributes:
        disk_id: index within the array.
        profile: bandwidth profile (per-regime service rates).
        almost_seq_window: forward block distance tolerated as
            almost-sequential relative to a remembered stream position.
        stream_memory: how many concurrent stream positions the disk
            remembers (1 = classic single-head-position model).
    """

    disk_id: int
    profile: DiskProfile = field(default_factory=DiskProfile)
    almost_seq_window: int = ALMOST_SEQ_WINDOW
    stream_memory: int = 4

    def __post_init__(self) -> None:
        if self.almost_seq_window < 1:
            raise ConfigError("almost_seq_window must be >= 1")
        if self.stream_memory < 1:
            raise ConfigError("stream_memory must be >= 1")
        self._streams: list[int] = []  # recent positions, most recent last
        # DiskProfile is frozen, so the per-regime service times can be
        # computed once instead of dividing on every request.
        self._service_times = {
            "sequential": 1.0 / self.profile.seq_ios_per_sec,
            "almost_sequential": 1.0 / self.profile.almost_seq_ios_per_sec,
            "random": 1.0 / self.profile.random_ios_per_sec,
        }
        self.counters = DiskCounters()
        self.busy_time = 0.0

    def _match(self, block: int) -> tuple[str, int | None]:
        """(regime, matching stream index) for a request.

        The one classifier: :meth:`service_time` reads it and then
        moves the streams.
        """
        best: tuple[str, int | None] = ("random", None)
        streams = self._streams
        last = len(streams) - 1
        for i, pos in enumerate(streams):
            delta = block - pos
            if delta == 1:
                if i == last:
                    best = ("sequential", i)
                    break
                best = ("almost_sequential", i)
            elif 0 <= delta <= self.almost_seq_window and best[0] == "random":
                best = ("almost_sequential", i)
        return best

    def service_time(self, block: int, *, multiplier: float = 1.0) -> float:
        """Service one request; returns its service time in seconds.

        Updates the stream memory, the per-regime counters and the
        accumulated busy time.

        Args:
            block: requested block number.
            multiplier: current bandwidth factor of this disk (fault
                injection: a disk at 50% bandwidth doubles every
                service time).  1.0 models a healthy disk.
        """
        if multiplier <= 0:
            raise ConfigError("multiplier must be positive")
        regime, index = self._match(block)
        counters = self.counters
        if regime == "sequential":
            counters.sequential += 1
        elif regime == "almost_sequential":
            counters.almost_sequential += 1
        else:
            counters.random += 1
        t = self._service_times[regime]
        if multiplier != 1.0:
            t = t / multiplier
        streams = self._streams
        if index is not None:
            streams.pop(index)
        streams.append(block)
        if len(streams) > self.stream_memory:
            streams.pop(0)
        self.busy_time += t
        return t

    def reset(self) -> None:
        """Forget all stream positions and zero all counters."""
        self._streams = []
        self.counters.reset()
        self.busy_time = 0.0
