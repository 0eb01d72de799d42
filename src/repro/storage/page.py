"""Slotted disk pages.

The classic slotted-page layout: a small header, record data growing
from the front, and a slot directory growing from the back.  Each slot
holds ``(offset, length)`` for one record.  Records are only appended
and never deleted, so every slot holds a record (no record is empty).

Layout (little-endian)::

    [ header: slot_count (u16) | free_offset (u16) ]
    [ record bytes ... -> ]
    [ free space ]
    [ <- ... slot directory: (offset u16, length u16) per slot ]
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Iterator, Sequence

from ..config import PAGE_SIZE
from ..errors import InvalidSlotError, PageFullError, RecordTooLargeError

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


class SlottedPage:
    """A fixed-size page holding variable-length records in slots."""

    def __init__(self, page_size: int = PAGE_SIZE, *, data: bytes | None = None) -> None:
        self.page_size = page_size
        if data is not None:
            if len(data) != page_size:
                raise ValueError(
                    f"page image is {len(data)} bytes, expected {page_size}"
                )
            self._buf = bytearray(data)
            self._slot_count, self._free_offset = _HEADER.unpack_from(self._buf, 0)
        else:
            self._buf = bytearray(page_size)
            self._slot_count = 0
            self._free_offset = HEADER_SIZE
            self._write_header()

    # -- header ----------------------------------------------------------------

    def _write_header(self) -> None:
        _HEADER.pack_into(self._buf, 0, self._slot_count, self._free_offset)

    @property
    def slot_count(self) -> int:
        """Number of slots, one per record."""
        return self._slot_count

    @property
    def free_space(self) -> int:
        """Bytes available for one more record plus its slot."""
        directory_start = self.page_size - self._slot_count * SLOT_SIZE
        return max(0, directory_start - self._free_offset - SLOT_SIZE)

    @staticmethod
    def max_record_size(page_size: int = PAGE_SIZE) -> int:
        """Largest record that fits on an empty page of ``page_size``."""
        return page_size - HEADER_SIZE - SLOT_SIZE

    # -- slot directory ----------------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return self.page_size - (slot + 1) * SLOT_SIZE

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self._slot_count:
            raise InvalidSlotError(f"slot {slot} out of range [0, {self._slot_count})")
        return _SLOT.unpack_from(self._buf, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, self._slot_pos(slot), offset, length)

    # -- record operations --------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record, returning its slot id.

        Raises:
            RecordTooLargeError: if the record can never fit on a page.
            PageFullError: if this page lacks the free space.
        """
        if not record:
            raise ValueError("cannot insert an empty record")
        if len(record) > self.max_record_size(self.page_size):
            raise RecordTooLargeError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        if len(record) > self.free_space:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space} bytes free)"
            )
        offset = self._free_offset
        self._buf[offset : offset + len(record)] = record
        slot = self._slot_count
        self._slot_count += 1
        self._free_offset += len(record)
        self._write_slot(slot, offset, len(record))
        self._write_header()
        return slot

    def fill(self, records: Sequence[bytes], start: int = 0) -> int:
        """Append ``records[start:]`` in order while they fit; return the
        index after the last one appended.

        The page ends as if ``insert`` had been called on each appended
        record, but the records are written with one copy, the slot
        directory with one ``pack_into`` and the header once.

        Raises:
            RecordTooLargeError: if ``records[start]`` can never fit on a
                page (nothing is appended).
            ValueError: for an empty record among those that fit
                (nothing is appended).
        """
        n = len(records)
        if start < n and len(records[start]) > self.max_record_size(self.page_size):
            raise RecordTooLargeError(
                f"record of {len(records[start])} bytes exceeds page capacity"
            )
        room = self.page_size - self._slot_count * SLOT_SIZE - self._free_offset
        end = start
        while end < n:
            room -= len(records[end]) + SLOT_SIZE
            if room < 0:
                break
            end += 1
        if end == start:
            return end
        batch = records[start:end]
        if not all(batch):
            raise ValueError("cannot insert an empty record")
        lengths = list(map(len, batch))
        offsets = list(accumulate(lengths, initial=self._free_offset))
        new_free = offsets.pop()
        self._buf[self._free_offset : new_free] = b"".join(batch)
        # Slot i lives below slot i - 1, so the directory is written
        # highest slot first: (offset, length) pairs in reverse order.
        directory = [0] * (2 * len(batch))
        directory[0::2] = offsets[::-1]
        directory[1::2] = lengths[::-1]
        self._slot_count += len(batch)
        top = self._slot_pos(self._slot_count - 1)
        struct.pack_into(f"<{len(directory)}H", self._buf, top, *directory)
        self._free_offset = new_free
        self._write_header()
        return end

    def read(self, slot: int) -> bytes:
        """Return the record in ``slot``.

        Raises:
            InvalidSlotError: for out-of-range slots.
        """
        offset, length = self._read_slot(slot)
        return bytes(self._buf[offset : offset + length])

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every record in slot order."""
        for slot in range(self._slot_count):
            offset, length = self._read_slot(slot)
            yield slot, bytes(self._buf[offset : offset + length])

    def directory(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(offsets, lengths)`` of every slot in slot order, read with one
        unpack."""
        n = self._slot_count
        raw = struct.unpack_from(f"<{2 * n}H", self._buf, self.page_size - n * SLOT_SIZE)
        # The directory grows down from the page end: highest slot first.
        return raw[-2::-2], raw[::-2]

    @property
    def buffer(self) -> bytearray:
        """The page image itself, not a copy, for decoders that read
        records in place.  Do not write to it."""
        return self._buf
