"""The striped disk array (Figure 1).

"All relations are striped sequentially, block by block, in a
round-robin fashion across the disk array to allow maximum i/o
bandwidth."  The array maps a file's logical page number to a
``(disk, block)`` pair and routes io-timing requests to the right
:class:`~repro.storage.disk.Disk`.

Block numbers on each disk are allocated per file extent, so two files
striped over the same array occupy disjoint block ranges and reading
them alternately forces seeks — exactly the effect behind the paper's
sequential/random bandwidth distinction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import StorageError
from .disk import Disk


@dataclass(frozen=True)
class PageAddress:
    """Physical location of one logical page."""

    disk_id: int
    block: int


class FileExtent:
    """Block allocation of one file across the array."""

    def __init__(self, file_id: int, array: "DiskArray") -> None:
        self.file_id = file_id
        self._array = array
        self._addresses: list[PageAddress] = []

    @property
    def page_count(self) -> int:
        return len(self._addresses)

    def address(self, page_no: int) -> PageAddress:
        """Physical address of logical page ``page_no``.

        Raises:
            StorageError: for an unallocated page number.
        """
        if not 0 <= page_no < len(self._addresses):
            raise StorageError(
                f"file {self.file_id}: page {page_no} not allocated "
                f"(have {len(self._addresses)})"
            )
        return self._addresses[page_no]

    def _append(self, addr: PageAddress) -> None:
        self._addresses.append(addr)


class DiskArray:
    """Round-robin striping of file pages across the disks."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.disks = [Disk(i, config.disk) for i in range(config.disks)]
        self._next_block = [0] * config.disks
        self._files: dict[int, FileExtent] = {}
        self._next_file_id = 0

    def create_file(self) -> FileExtent:
        """Allocate a new (empty) striped file."""
        extent = FileExtent(self._next_file_id, self)
        self._files[self._next_file_id] = extent
        self._next_file_id += 1
        return extent

    def allocate_page(self, extent: FileExtent) -> PageAddress:
        """Extend a file by one page, round-robin over the disks."""
        disk_id = extent.page_count % len(self.disks)
        block = self._next_block[disk_id]
        self._next_block[disk_id] += 1
        addr = PageAddress(disk_id, block)
        extent._append(addr)
        return addr

    def read_time(self, extent: FileExtent, page_no: int) -> float:
        """Simulated service time of reading one page, in seconds.

        Advances the owning disk's head position and counters.
        """
        addr = extent.address(page_no)
        return self.disks[addr.disk_id].service_time(addr.block)

    @property
    def total_ios(self) -> int:
        return sum(d.counters.total for d in self.disks)

    @property
    def busy_time(self) -> float:
        """Sum of per-disk busy time (for utilization accounting)."""
        return sum(d.busy_time for d in self.disks)
