"""The system catalog: relation name → schema, storage, stats, indexes.

The catalog deliberately does not import the storage layer; it holds the
heap file and index objects the caller registers, so the dependency
points storage → catalog only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import DuplicateRelationError, UnknownRelationError
from .schema import Schema
from .statistics import RelationStats


@dataclass
class IndexEntry:
    """Catalog record for one index.

    Attributes:
        name: index name, unique within the catalog.
        column: indexed column name.
        clustered: whether the heap is ordered on the indexed column.
            The paper's workload uses an *unclustered* index on ``a`` to
            make IO-bound index scans possible.
        index: the index object (a ``repro.storage.btree.BTreeIndex``).
    """

    name: str
    column: str
    clustered: bool
    index: Any


@dataclass
class TableEntry:
    """Catalog record for one relation."""

    name: str
    schema: Schema
    heap: Any
    stats: RelationStats | None = None
    indexes: dict[str, IndexEntry] = field(default_factory=dict)


class Catalog:
    """A simple in-memory system catalog.

    Attributes:
        stats_epoch: monotonically increasing counter bumped by every
            mutator that can change what the optimizer would choose
            (:meth:`create_table`, :meth:`set_stats`, :meth:`add_index`).
            Anything memoizing plans or estimates against this catalog
            records the epoch it was filled under and discards itself
            when the epoch has moved on.  Writing to a
            :class:`TableEntry` directly bypasses it — go through the
            catalog.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self.stats_epoch = 0

    def create_table(self, name: str, schema: Schema, heap: Any) -> TableEntry:
        """Register a relation.

        Raises:
            DuplicateRelationError: if the name is taken.
        """
        if name in self._tables:
            raise DuplicateRelationError(name)
        entry = TableEntry(name=name, schema=schema, heap=heap)
        self._tables[name] = entry
        self.stats_epoch += 1
        return entry

    def table(self, name: str) -> TableEntry:
        """Look up a relation by name.

        Raises:
            UnknownRelationError: if no such relation exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_table(self, name: str) -> bool:
        """Whether a relation called ``name`` exists."""
        return name in self._tables

    def tables(self) -> Iterator[TableEntry]:
        """Iterate over all registered relations."""
        return iter(self._tables.values())

    def set_stats(self, name: str, stats: RelationStats) -> None:
        """Attach statistics to a relation (ANALYZE)."""
        self.table(name).stats = stats
        self.stats_epoch += 1

    def add_index(
        self,
        table_name: str,
        index_name: str,
        column: str,
        index: Any,
        *,
        clustered: bool = False,
    ) -> IndexEntry:
        """Register an index on an existing relation."""
        table = self.table(table_name)
        if index_name in table.indexes:
            raise DuplicateRelationError(index_name)
        table.schema.index_of(column)  # raises UnknownColumnError if bad
        entry = IndexEntry(
            name=index_name, column=column, clustered=clustered, index=index
        )
        table.indexes[index_name] = entry
        self.stats_epoch += 1
        return entry

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return name in self._tables
