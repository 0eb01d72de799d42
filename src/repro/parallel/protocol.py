"""Master/slave message types (Figures 5 and 6).

The real multiprocessing executor and its tests speak these messages.
Everything is a small picklable dataclass; the master sends commands
down per-slave pipes and slaves reply on a shared report queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .partition import PageAssignment


# -- master -> slave ----------------------------------------------------------


@dataclass(frozen=True)
class Signal:
    """Step 1 of either protocol: 'report your position and pause-point'."""


@dataclass(frozen=True)
class NewPageAssignment:
    """Figure 5 step 3: maxpage + the slave's updated stride list.

    ``generation`` counts adjustments; slaves tag later reports with it
    so the master can discard reports that predate an adjustment.
    """

    maxpage: int
    parallelism: int
    assignments: tuple[PageAssignment, ...]
    generation: int = 0


@dataclass(frozen=True)
class NewIntervals:
    """Figure 6 step 3: the slave's repartitioned key intervals."""

    parallelism: int
    intervals: tuple[tuple[int, int], ...]
    generation: int = 0


@dataclass(frozen=True)
class Shutdown:
    """Terminate the slave process."""


# -- slave -> master -----------------------------------------------------------


@dataclass(frozen=True)
class CurPage:
    """Figure 5 step 2: the slave's current (next unclaimed) page.

    ``generation`` is the adjustment generation the slave had seen when
    it reported.  The master discards a CurPage older than the slave's
    spawn generation — applying one would repartition from a position
    that predates a completed adjustment round and double-scan pages.
    """

    slave_id: int
    curpage: int
    generation: int = 0


@dataclass(frozen=True)
class RemainingIntervals:
    """Figure 6 step 2: intervals the slave has not yet scanned.

    ``generation`` plays the same staleness role as on :class:`CurPage`.
    """

    slave_id: int
    intervals: tuple[tuple[int, int], ...]
    generation: int = 0


@dataclass(frozen=True)
class Rows:
    """A batch of qualifying rows produced by a slave."""

    slave_id: int
    rows: tuple = field(default_factory=tuple)
    pages_read: int = 0


@dataclass(frozen=True)
class SlaveDone:
    """The slave has exhausted its assignment.

    ``generation`` is the adjustment generation the slave last saw; the
    master ignores a SlaveDone older than its current generation (the
    slave was re-assigned work after sending it).
    """

    slave_id: int
    pages_read: int
    rows_produced: int
    generation: int = 0


@dataclass(frozen=True)
class SlaveError:
    """The slave died; ``message`` is the formatted traceback."""

    slave_id: int
    message: str


MasterMessage = Signal | NewPageAssignment | NewIntervals | Shutdown
SlaveMessage = CurPage | RemainingIntervals | Rows | SlaveDone | SlaveError
