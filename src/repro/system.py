"""The XPRS system facade — Figure 2 as one object.

"There are one master Postgres backend and multiple slave Postgres
backends.  The master backend is responsible for all the optimization
and scheduling ... XPRS query processing consists of two phases.  In
the first phase, the optimizer takes one or more user queries and
generates certain sequential plans for each query.  In the second
phase, the parallelizer parallelizes the sequential plans."

:class:`XprsSystem` bundles the catalog, storage, optimizer,
parallelizer and scheduler behind one API::

    system = XprsSystem()
    system.create_table("r1", [("a", "int4"), ("b", "text")], rows)
    system.create_index("r1", "a")

    answer = system.execute("SELECT count(*) FROM r1 WHERE a < 100")
    report = system.explain("SELECT ...")   # plan + fragments + schedule
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .catalog import Catalog, Schema
from .config import MachineConfig, paper_machine
from .core.schedulers import InterWithAdjPolicy, SchedulingPolicy
from .errors import ReproError
from .optimizer.parcost import ParallelCost, parallel_cost
from .sql.translate import TranslatedQuery, translate
from .storage import BTreeIndex, DiskArray, HeapFile, RecordId


@dataclass
class ExplainReport(ParallelCost):
    """Everything the master backend decides about one query.

    The :class:`~repro.optimizer.ParallelCost` of the chosen plan
    (phase 1's plan, its estimate, fragments, tasks and the predicted
    phase-2 schedule) plus ``sql``, the statement text.
    """

    sql: str

    @property
    def predicted_elapsed(self) -> float:
        """``parcost(p, n)`` — the predicted parallel elapsed time."""
        return self.elapsed

    def pretty(self) -> str:
        """A multi-section EXPLAIN-style rendering."""
        from .bench.gantt import render_gantt

        parts = [
            f"SQL: {self.sql}",
            "",
            "Plan:",
            self.plan.pretty(1),
            "",
            f"Fragments: {len(self.fragments)} "
            f"(seqcost {self.seqcost:.3f}s, parcost {self.predicted_elapsed:.3f}s)",
        ]
        for fragment in self.fragments.fragments:
            parts.append(
                f"  frag{fragment.fragment_id}: {fragment.root.label()} "
                f"T={fragment.seq_time:.3f}s C={fragment.io_rate:.1f} ios/s "
                f"deps={sorted(fragment.depends_on)}"
            )
        parts.append("")
        parts.append(render_gantt(self.schedule, title="Predicted schedule:"))
        return "\n".join(parts)


class XprsSystem:
    """The whole reproduction behind one object (the master backend).

    Args:
        machine: machine configuration (the paper's Sequent by default).
        space: join-order search space for phase 1 (``"bushy"`` follows
            Section 4; ``"left-deep"`` is the [HONG91] baseline).
        policy: phase-2 scheduling policy (the adaptive algorithm by
            default).
    """

    def __init__(
        self,
        *,
        machine: MachineConfig | None = None,
        space: str = "bushy",
        policy: SchedulingPolicy | None = None,
    ) -> None:
        self.machine = machine or paper_machine()
        self.space = space
        self.policy = policy or InterWithAdjPolicy()
        self.catalog = Catalog()
        self.array = DiskArray(self.machine)

    # -- DDL ---------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, str]],
        rows: Sequence[Sequence] = (),
    ) -> HeapFile:
        """Create, populate and ANALYZE a relation.

        Args:
            name: relation name.
            columns: ``(column, type)`` pairs (int4 / float8 / text).
            rows: initial rows to insert.
        """
        schema = Schema.of(*columns)
        heap = HeapFile(schema, self.array, name=name)
        heap.insert_many(rows)
        self.catalog.create_table(name, schema, heap)
        self.analyze(name)
        return heap

    def insert(self, table: str, rows: Sequence[Sequence]) -> None:
        """Append rows to a relation (indexes are maintained).

        The rows go in with one ``insert_many``; a bad row raises what it
        raises there, and the rows stored before it are indexed too.
        """
        entry = self.catalog.table(table)
        heap = entry.heap
        keyed = [
            (entry.schema.index_of(index_entry.column), index_entry.index)
            for index_entry in entry.indexes.values()
        ]
        # Appends take the slots after the last page's last slot, then
        # new pages, so the rows stored here are read back from there.
        end = heap.page_count - 1
        end_slot = heap.page(end).slot_count if end >= 0 else 0
        try:
            heap.insert_many(rows)
        finally:
            if keyed:
                stored = [
                    RecordId(page_no, slot)
                    for page_no in range(max(end, 0), heap.page_count)
                    for slot in range(
                        end_slot if page_no == end else 0, heap.page(page_no).slot_count
                    )
                ]
                for rid in stored:
                    row = heap.fetch(rid)
                    for position, index in keyed:
                        if row[position] is not None:
                            index.insert(row[position], rid)

    def create_index(self, table: str, column: str) -> BTreeIndex:
        """Build an unclustered B+tree index over an existing column."""
        entry = self.catalog.table(table)
        position = entry.schema.index_of(column)
        index = BTreeIndex()
        for rid, row in entry.heap.scan():
            if row[position] is not None:
                index.insert(row[position], rid)
        self.catalog.add_index(table, f"{table}_{column}_idx", column, index)
        return index

    def analyze(self, table: str) -> None:
        """Recompute a relation's statistics (run after bulk inserts)."""
        from .plans.costing import analyze_table

        analyze_table(self.catalog, table)

    # -- queries --------------------------------------------------------------------

    def execute(self, sql: str) -> list:
        """Plan and execute a SELECT; returns the result rows."""
        return self._translate(sql).run(self.catalog)

    def explain(self, sql: str) -> ExplainReport:
        """Phase 1 + phase 2 without executing: plan, fragments, schedule."""
        cost = parallel_cost(
            self._translate(sql).plan,
            self.catalog,
            machine=self.machine,
            policy=self.policy,
        )
        return ExplainReport(**vars(cost), sql=sql)

    def _translate(self, sql: str) -> TranslatedQuery:
        if not isinstance(sql, str) or not sql.strip():
            raise ReproError("execute() needs a SQL string")
        return translate(sql, self.catalog, space=self.space, machine=self.machine)
