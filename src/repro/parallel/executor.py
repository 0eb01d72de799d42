"""A real master/slave parallel scan executor on ``multiprocessing``.

This is the paper's execution architecture made concrete: one master
process coordinates N slave processes over pipes and a report queue.
Slaves run page-partitioned sequential scans (or range-partitioned
index scans) and the master can change a running scan's degree of
parallelism with the literal Figure-5 / Figure-6 protocols:

1. master sends :class:`~repro.parallel.protocol.Signal` to every slave;
2. each slave finishes its in-hand page, reports its position
   (``curpage`` / remaining intervals) and pauses;
3. the master computes ``maxpage`` (or repartitions the intervals) and
   broadcasts the new assignments; paused slaves resume and freshly
   spawned slaves join.

Both scans share one master loop, one adjustment round and one slave
main loop; they differ only in the slave's work object (how it claims,
reads, reports and accepts work) and in how the master deals the
reported positions — the Figure-5 arithmetic is
:func:`~repro.parallel.partition.maxpage_round`, the same function the
micro simulator calls.

On this grid the Python GIL is irrelevant — slaves are processes — but
a single-core host obviously gains no wall-clock speedup; the executor
demonstrates *correctness* of the protocols (every page scanned exactly
once across adjustments), while the simulators carry the performance
experiments.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..catalog.schema import Row
from ..errors import ProtocolError
from ..executor.expressions import Expression
from ..storage.btree import BTreeIndex
from ..storage.heap import HeapFile
from . import protocol as msg
from .partition import (
    PageAssignment,
    intervals_from_separators,
    maxpage_round,
    page_assignments,
    repartition_intervals,
)

_BATCH_PAGES = 16


@dataclass
class ScanReport:
    """Outcome of one parallel scan."""

    rows: list[Row]
    pages_read: int
    parallelism_history: list[int] = field(default_factory=list)
    adjustments: int = 0


# ---------------------------------------------------------------------------
# slave processes


class _PageWork:
    """A page slave's strides and cursor (Figure 5)."""

    command = msg.NewPageAssignment

    def __init__(self, heap: HeapFile, assignments: Sequence[PageAssignment]) -> None:
        self.heap = heap
        self.pending = list(assignments)
        self.cursor = 0

    def claim(self) -> int | None:
        while self.pending:
            page = self.pending[0].first_at_or_after(self.cursor)
            if page is None:
                self.pending.pop(0)
                continue
            self.cursor = page + 1
            return page
        return None

    def read(self, page: int) -> tuple[int, list[Row]]:
        return 1, [row for __, row in self.heap.scan_pages([page])]

    def position(self, slave_id: int, generation: int) -> msg.CurPage:
        return msg.CurPage(slave_id, self.cursor, generation)

    def accept(self, command: msg.NewPageAssignment) -> None:
        self.pending = list(command.assignments)


class _RangeWork:
    """A range slave's remaining int-key intervals (Figure 6)."""

    command = msg.NewIntervals

    def __init__(
        self, heap: HeapFile, index: BTreeIndex, intervals: Sequence[tuple[int, int]]
    ) -> None:
        self.heap = heap
        self.index = index
        self.pending = [(lo, hi) for lo, hi in intervals if lo <= hi]

    def claim(self) -> int | None:
        while self.pending:
            lo, hi = self.pending[0]
            if lo > hi:
                self.pending.pop(0)
                continue
            self.pending[0] = (lo + 1, hi)
            return lo
        return None

    def read(self, key: int) -> tuple[int, list[Row]]:
        """Each fetched row counts as one read (a page, for a seq scan)."""
        rows = [self.heap.fetch(rid) for __, rid in self.index.range_scan(key, key)]
        return len(rows), rows

    def position(self, slave_id: int, generation: int) -> msg.RemainingIntervals:
        # The intervals go back to the master, which deals them anew.
        remaining = tuple((lo, hi) for lo, hi in self.pending if lo <= hi)
        self.pending = []
        return msg.RemainingIntervals(slave_id, remaining, generation)

    def accept(self, command: msg.NewIntervals) -> None:
        self.pending = list(command.intervals)


def _slave(
    slave_id: int,
    work: _PageWork | _RangeWork,
    predicate: Expression | None,
    command_conn,
    report_queue,
) -> None:
    """Slave main loop: claim, read and batch rows; obey the master."""
    try:
        bound = predicate.bind(work.heap.schema) if predicate is not None else None
        generation = 0
        rows: list[Row] = []
        read = 0
        total_read = 0
        total_rows = 0

        def flush() -> None:
            nonlocal rows, read, total_read, total_rows
            if rows or read:
                report_queue.put(msg.Rows(slave_id, tuple(rows), read))
                total_read += read
                total_rows += len(rows)
                rows, read = [], 0

        def handle_commands(block: bool) -> bool:
            """Process pending commands; returns False on Shutdown."""
            nonlocal generation
            while block or command_conn.poll():
                command = command_conn.recv()
                if isinstance(command, msg.Shutdown):
                    return False
                if isinstance(command, msg.Signal):
                    # Step 2 of either protocol: report position, then
                    # pause until the new assignment arrives.
                    flush()
                    report_queue.put(work.position(slave_id, generation))
                    block = True
                    continue
                if isinstance(command, work.command):
                    work.accept(command)
                    generation = command.generation
                    block = False
                    continue
                raise ProtocolError(f"unexpected command: {command!r}")
            return True

        while handle_commands(block=False):
            unit = work.claim()
            if unit is None:
                flush()
                report_queue.put(
                    msg.SlaveDone(slave_id, total_read, total_rows, generation)
                )
                # Wait for the shutdown (or a late adjustment reviving us).
                if not handle_commands(block=True):
                    break
                continue
            count, fetched = work.read(unit)
            read += count
            rows.extend(row for row in fetched if bound is None or bound(row))
            if read >= _BATCH_PAGES:
                flush()
    except Exception:  # pragma: no cover - surfaced via SlaveError
        report_queue.put(msg.SlaveError(slave_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# master


@dataclass
class AdjustmentPlan:
    """Adjust the scan to ``parallelism`` once ``after_pages`` pages done."""

    after_pages: int
    parallelism: int


class _MasterBase:
    """The master of either partitioning style: one scan loop, one round.

    Subclasses name the slaves' position report (``_report``) and
    supply ``initial_shares()``, a slave's work object (``_work``) and
    the deal of a round (``_deal``: the shares by position, and the
    command that carries one share).
    """

    _report: type

    def __init__(
        self,
        heap: HeapFile,
        predicate: Expression | None,
        parallelism: int,
        adjustments: Sequence[AdjustmentPlan],
    ) -> None:
        if parallelism < 1:
            raise ProtocolError("parallelism must be >= 1")
        self._ctx = mp.get_context("fork")
        self.heap = heap
        self.predicate = predicate
        self.parallelism = parallelism
        self.adjustments = sorted(adjustments, key=lambda a: a.after_pages)
        self.report_queue = self._ctx.Queue()
        self._conns: dict[int, Any] = {}
        self._procs: dict[int, Any] = {}
        #: each slave's latest share, as dealt by the master.
        self._shares: dict[int, list] = {}
        self._done: set[int] = set()
        self._buffer: list = []
        self._generation = 0
        #: slaves spawned at generation g report that g in SlaveDone.
        self._spawn_generation: dict[int, int] = {}

    def run(self) -> ScanReport:
        """Execute the scan to completion; returns rows and statistics."""
        for slave_id, share in enumerate(self.initial_shares()):
            self._spawn(slave_id, share)
        report = ScanReport(rows=[], pages_read=0)
        report.parallelism_history.append(self.parallelism)
        pending_adjustments = list(self.adjustments)
        while len(self._done) < len(self._procs):
            message = self._next_message()
            if isinstance(message, msg.SlaveError):
                self._shutdown()
                raise ProtocolError(message.message)
            if isinstance(message, msg.Rows):
                report.rows.extend(message.rows)
                report.pages_read += message.pages_read
            elif isinstance(message, msg.SlaveDone):
                if message.generation >= self._min_generation(message.slave_id):
                    self._done.add(message.slave_id)
            elif isinstance(message, (msg.CurPage, msg.RemainingIntervals)):
                if message.generation >= self._min_generation(message.slave_id):
                    raise ProtocolError(f"unsolicited report: {message!r}")
                # Stale straggler from before a completed adjustment
                # round; the round already collected a fresh report.
            if (
                pending_adjustments
                and report.pages_read >= pending_adjustments[0].after_pages
                and len(self._done) < len(self._procs)
            ):
                plan = pending_adjustments.pop(0)
                if plan.parallelism != self.parallelism:
                    self._adjust(plan.parallelism)
                    report.adjustments += 1
                    report.parallelism_history.append(plan.parallelism)
        self._shutdown()
        return report

    def _adjust(self, new_parallelism: int) -> None:
        """One adjustment round (Figure 5 or 6), for real."""
        live = [i for i in sorted(self._procs) if i not in self._done]
        for slave_id in live:
            self._conns[slave_id].send(msg.Signal())
        reports = self._collect_reports(self._report, live)
        shares, command = self._deal(live, reports, new_parallelism)
        self._generation += 1
        # Position i takes share i: the live slaves, then fresh slaves
        # up to n'.  Positions the deal left out get no new work.
        positions = max(len(live), new_parallelism)
        shares.extend([] for __ in range(len(shares), positions))
        for slave_id, share in zip(live, shares):
            self._shares[slave_id] = share
            self._spawn_generation[slave_id] = self._generation
            self._conns[slave_id].send(command(share, self._generation))
        for share in shares[len(live):]:
            slave_id = max(self._procs) + 1
            self._spawn_generation[slave_id] = 0  # fresh slaves report gen 0
            self._spawn(slave_id, share)
        self.parallelism = new_parallelism

    def _spawn(self, slave_id: int, share: list) -> None:
        parent, child = self._ctx.Pipe()
        work = self._work(share)
        proc = self._ctx.Process(
            target=_slave,
            args=(slave_id, work, self.predicate, child, self.report_queue),
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[slave_id] = parent
        self._procs[slave_id] = proc
        self._shares[slave_id] = share
        self._done.discard(slave_id)

    def _shutdown(self) -> None:
        for conn in self._conns.values():
            try:
                conn.send(msg.Shutdown())
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs.values():
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover
                proc.terminate()
        for conn in self._conns.values():
            conn.close()

    def _collect_reports(self, expected_type, live: list) -> dict:
        """One *fresh* position report per live slave, keyed by slave id.

        A report whose ``generation`` predates the slave's latest
        assignment is a straggler from before a completed adjustment
        round; applying it would rewind the slave's position and
        re-scan pages the new partition already covers, so it is
        discarded and the master keeps waiting for the fresh one.
        Duplicates and reports from finished slaves are dropped the
        same way; row traffic arriving meanwhile is buffered for the
        main loop.
        """
        wanted = set(live)
        reports: dict[int, Any] = {}
        buffered: list = []
        while wanted - reports.keys():
            message = self.report_queue.get(timeout=60)
            if isinstance(message, msg.SlaveError):
                raise ProtocolError(message.message)
            if isinstance(message, expected_type):
                if (
                    message.slave_id in wanted
                    and message.slave_id not in reports
                    and message.generation
                    >= self._min_generation(message.slave_id)
                ):
                    reports[message.slave_id] = message
                continue
            buffered.append(message)
        self._buffer.extend(buffered)
        return reports

    def _next_message(self):
        if self._buffer:
            return self._buffer.pop(0)
        return self.report_queue.get(timeout=60)

    def _min_generation(self, slave_id: int) -> int:
        """The generation a report from this slave must carry to count.

        A slave that took part in adjustment g (or was spawned at g)
        reports generation g; an older CurPage, RemainingIntervals or
        SlaveDone is stale — the slave was handed new work after
        sending it.
        """
        return self._spawn_generation.get(slave_id, 0)


class ParallelSeqScan(_MasterBase):
    """Page-partitioned parallel sequential scan with dynamic adjustment.

    Args:
        heap: relation to scan.
        predicate: optional selection.
        parallelism: initial number of slaves.
        adjustments: optional schedule of mid-scan parallelism changes,
            triggered by total pages processed.
    """

    _report = msg.CurPage

    def __init__(
        self,
        heap: HeapFile,
        predicate: Expression | None = None,
        *,
        parallelism: int = 2,
        adjustments: Sequence[AdjustmentPlan] = (),
    ) -> None:
        super().__init__(heap, predicate, parallelism, adjustments)

    def initial_shares(self) -> list[list[PageAssignment]]:
        """The initial per-slave stride lists: ``{p | p mod n = i}``."""
        return [[a] for a in page_assignments(self.heap.page_count, self.parallelism)]

    def _work(self, share: list[PageAssignment]) -> _PageWork:
        return _PageWork(self.heap, share)

    def _deal(self, live: list[int], reports: dict, new_parallelism: int):
        """Figure 5 over every slave's cursor.  A finished slave read
        all of its strides, so its final cursor is one past their last
        page."""
        finished = [
            max((p + 1 for a in self._shares[i] for p in a.pages()[-1:]), default=0)
            for i in self._done
        ]
        maxpage, strides = maxpage_round(
            [self._shares[i] for i in live],
            [reports[i].curpage for i in live] + finished,
            self.heap.page_count,
            new_parallelism,
        )

        def command(share, generation):
            return msg.NewPageAssignment(
                maxpage, new_parallelism, tuple(share), generation
            )

        return strides, command


class ParallelIndexScan(_MasterBase):
    """Range-partitioned parallel index scan with dynamic adjustment.

    Keys must be integers.  The initial partition is *balanced using
    the index root's separator keys* (the paper's "data distribution
    information ... in the root node of an index"), so skewed key
    distributions still hand each slave a near-equal row share; set
    ``use_index_distribution=False`` for a plain even key-space split.
    The Figure-6 protocol rebalances leftovers on adjustment.
    """

    _report = msg.RemainingIntervals

    def __init__(
        self,
        heap: HeapFile,
        index: BTreeIndex,
        *,
        low: int,
        high: int,
        predicate: Expression | None = None,
        parallelism: int = 2,
        adjustments: Sequence[AdjustmentPlan] = (),
        use_index_distribution: bool = True,
        separators: Sequence[int] | None = None,
    ) -> None:
        super().__init__(heap, predicate, parallelism, adjustments)
        if low > high:
            raise ProtocolError("low must be <= high")
        self.index = index
        self.low = low
        self.high = high
        self.use_index_distribution = use_index_distribution
        self.separators = tuple(separators) if separators is not None else None

    def initial_shares(self) -> list[list[tuple[int, int]]]:
        """The initial per-slave interval lists.

        Preference order for distribution info (Section 2.4): an
        explicit equi-depth histogram from the system catalog (row
        mass, handles duplicate-heavy skew), then the index root's
        separator keys (distinct-key mass), then an even key-space
        split.
        """
        if self.separators:
            return intervals_from_separators(
                self.low, self.high, self.separators, self.parallelism
            )
        if self.use_index_distribution:
            separators = self.index.root_separators()
            if separators:
                return intervals_from_separators(
                    self.low, self.high, separators, self.parallelism
                )
        return repartition_intervals([(self.low, self.high)], self.parallelism)

    def _work(self, share: list[tuple[int, int]]) -> _RangeWork:
        return _RangeWork(self.heap, self.index, share)

    def _deal(self, live: list[int], reports: dict, new_parallelism: int):
        """Figure 6: repartition the live slaves' remaining intervals."""
        remaining = [iv for i in live for iv in reports[i].intervals]

        def command(share, generation):
            return msg.NewIntervals(new_parallelism, tuple(share), generation)

        return repartition_intervals(remaining, new_parallelism), command
