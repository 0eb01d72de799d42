"""Heap files: unordered collections of records in slotted pages.

A heap file owns a sequence of :class:`SlottedPage` objects striped
across the disk array.  Records are addressed by :class:`RecordId`
(page number, slot).  The scan methods support the paper's *page
partitioning*: "given n processors, processor i processes disk pages
``{p | p mod n = i}``".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..catalog.schema import Row, Schema
from ..errors import PageFullError, StorageError
from .diskarray import DiskArray, FileExtent
from .page import SlottedPage


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable address of a record: (page number, slot)."""

    page_no: int
    slot: int


class HeapFile:
    """An append-oriented heap file of fixed-size slotted pages."""

    def __init__(self, schema: Schema, array: DiskArray, *, name: str = "") -> None:
        self.schema = schema
        self.array = array
        self.name = name
        self.extent: FileExtent = array.create_file()
        self._pages: list[SlottedPage] = []
        self._row_count = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return self._row_count

    @property
    def page_size(self) -> int:
        return self.array.config.page_size

    def page(self, page_no: int) -> SlottedPage:
        """The page object for ``page_no``.

        Raises:
            StorageError: for an out-of-range page number.
        """
        if not 0 <= page_no < len(self._pages):
            raise StorageError(
                f"heap {self.name or self.extent.file_id}: "
                f"page {page_no} out of range [0, {len(self._pages)})"
            )
        return self._pages[page_no]

    def _new_page(self) -> SlottedPage:
        self.array.allocate_page(self.extent)
        page = SlottedPage(self.page_size)
        self._pages.append(page)
        return page

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Sequence) -> RecordId:
        """Validate, encode and append one row; returns its RecordId."""
        validated = self.schema.validate_row(row)
        record = self.schema.encode_row(validated)
        if not self._pages:
            self._new_page()
        page = self._pages[-1]
        try:
            slot = page.insert(record)
        except PageFullError:
            page = self._new_page()
            slot = page.insert(record)
        self._row_count += 1
        return RecordId(len(self._pages) - 1, slot)

    def insert_many(self, rows: Iterable[Sequence]) -> list[RecordId]:
        """Bulk insert; returns the RecordIds in input order."""
        return [self.insert(row) for row in rows]

    def delete(self, rid: RecordId) -> None:
        """Delete the record at ``rid``."""
        self.page(rid.page_no).delete(rid.slot)
        self._row_count -= 1

    # -- access -----------------------------------------------------------------

    def fetch(self, rid: RecordId) -> Row:
        """Decode and return the row at ``rid``."""
        record = self.page(rid.page_no).read(rid.slot)
        return self.schema.decode_row(record)

    def scan(self) -> Iterator[tuple[RecordId, Row]]:
        """Full scan in page, then slot, order."""
        yield from self.scan_pages(range(len(self._pages)))

    def scan_pages(self, page_numbers) -> Iterator[tuple[RecordId, Row]]:
        """Scan only the given page numbers, in the given order."""
        for page_no in page_numbers:
            page = self.page(page_no)
            for slot, record in page.records():
                yield RecordId(page_no, slot), self.schema.decode_row(record)

    def partition_pages(self, n_partitions: int, partition: int) -> range:
        """Page numbers of one *page partition*: ``{p | p mod n == i}``.

        Raises:
            StorageError: for an invalid partition spec.
        """
        if n_partitions < 1 or not 0 <= partition < n_partitions:
            raise StorageError(
                f"bad page partition {partition}/{n_partitions}"
            )
        return range(partition, len(self._pages), n_partitions)

    def scan_partition(
        self, n_partitions: int, partition: int
    ) -> Iterator[tuple[RecordId, Row]]:
        """Scan one page partition (the paper's parallel seq-scan unit)."""
        yield from self.scan_pages(self.partition_pages(n_partitions, partition))

    # -- io accounting -----------------------------------------------------------

    def read_time(self, page_no: int) -> float:
        """Simulated io time for reading ``page_no`` (advances disk state)."""
        return self.array.read_time(self.extent, page_no)
