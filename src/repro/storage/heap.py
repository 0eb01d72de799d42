"""Heap files: unordered collections of records in slotted pages.

A heap file owns a sequence of :class:`SlottedPage` objects striped
across the disk array.  Records are addressed by :class:`RecordId`
(page number, slot).  The scan methods support the paper's *page
partitioning*: "given n processors, processor i processes disk pages
``{p | p mod n = i}``".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

from ..catalog.schema import Row, Schema
from ..errors import StorageError
from .diskarray import DiskArray, FileExtent
from .page import SlottedPage

#: Rows encoded and laid out per step of ``insert_many``: bounds what a
#: streamed input holds in memory at once.
_CHUNK_ROWS = 1024


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
        """Number of rows inserted; the heap deletes none."""
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
        return self.insert_many((row,))[0]

    def insert_many(self, rows: Iterable[Sequence]) -> list[RecordId]:
        """Validate, encode and append rows; returns their RecordIds in
        input order.

        Rows stream through in chunks of ``_CHUNK_ROWS``: each chunk is
        encoded column by column (``Schema.encode_rows``) and laid onto
        pages a page at a time (``SlottedPage.fill``), with the page images
        and rids of one ``insert`` per row.  A bad row raises what its
        ``insert`` would, after the rows before it are stored.
        """
        rids: list[RecordId] = []
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            records, error = self.schema.encode_rows(chunk)
            self._append(records, rids)
            if error is not None:
                raise error
        return rids

    def _append(self, records: list[bytes], rids: list[RecordId]) -> None:
        """Lay ``records`` onto the last page and new ones, in order."""
        if records and not self._pages:
            self._new_page()
        start = 0
        while start < len(records):
            page = self._pages[-1]
            first = page.slot_count
            end = page.fill(records, start)
            if end == start:
                self._new_page()
                continue
            page_no = len(self._pages) - 1
            rids.extend(map(RecordId, repeat(page_no), range(first, page.slot_count)))
            self._row_count += end - start
            start = end

    # -- access -----------------------------------------------------------------

    def fetch(self, rid: RecordId) -> Row:
        """Decode and return the row at ``rid``."""
        record = self.page(rid.page_no).read(rid.slot)
        return self.schema.decode_row(record)

    def decode_page(self, page_no: int) -> tuple[range, list[Row], int]:
        """Decode the records of ``page_no``, in slot order.

        Returns ``(slots, rows, size)``: the slots, their rows and their
        total encoded length.  The one page decoder, shared by scans and
        ANALYZE (``fetch`` reads one record, with ``decode_row``).
        """
        page = self.page(page_no)
        offsets, lengths = page.directory()
        slots = range(len(lengths))
        return slots, self.schema.decode_records(page.buffer, offsets), sum(lengths)

    def scan(self) -> Iterator[tuple[RecordId, Row]]:
        """Full scan in page, then slot, order."""
        yield from self.scan_pages(range(len(self._pages)))

    def scan_pages(self, page_numbers) -> Iterator[tuple[RecordId, Row]]:
        """Scan only the given page numbers, in the given order."""
        for page_no in page_numbers:
            slots, rows, __ = self.decode_page(page_no)
            yield from zip(map(RecordId, repeat(page_no), slots), rows)

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

    # -- io accounting -----------------------------------------------------------

    def read_time(self, page_no: int) -> float:
        """Simulated io time for reading ``page_no`` (advances disk state)."""
        return self.array.read_time(self.extent, page_no)
