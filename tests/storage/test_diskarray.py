"""Tests for round-robin striping across the disk array."""

import pytest

from repro.config import MachineConfig, paper_machine
from repro.errors import StorageError
from repro.storage import DiskArray


@pytest.fixture
def array():
    return DiskArray(paper_machine())


class TestStriping:
    def test_round_robin_placement(self, array):
        extent = array.create_file()
        addrs = [array.allocate_page(extent) for __ in range(8)]
        assert [a.disk_id for a in addrs] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_blocks_contiguous_per_disk(self, array):
        extent = array.create_file()
        addrs = [array.allocate_page(extent) for __ in range(8)]
        on_disk0 = [a.block for a in addrs if a.disk_id == 0]
        assert on_disk0 == [0, 1]

    def test_two_files_get_disjoint_blocks(self, array):
        e1 = array.create_file()
        e2 = array.create_file()
        a1 = [array.allocate_page(e1) for __ in range(4)]
        a2 = [array.allocate_page(e2) for __ in range(4)]
        pairs1 = {(a.disk_id, a.block) for a in a1}
        pairs2 = {(a.disk_id, a.block) for a in a2}
        assert pairs1.isdisjoint(pairs2)

    def test_address_bounds(self, array):
        extent = array.create_file()
        array.allocate_page(extent)
        assert extent.address(0).disk_id == 0
        with pytest.raises(StorageError):
            extent.address(1)
        with pytest.raises(StorageError):
            extent.address(-1)

    def test_single_disk_array(self):
        array = DiskArray(MachineConfig(processors=2, disks=1))
        extent = array.create_file()
        addrs = [array.allocate_page(extent) for __ in range(3)]
        assert all(a.disk_id == 0 for a in addrs)
        assert [a.block for a in addrs] == [0, 1, 2]


class TestTiming:
    def test_full_file_scan_touches_all_disks(self, array):
        extent = array.create_file()
        for __ in range(16):
            array.allocate_page(extent)
        for p in range(16):
            array.read_time(extent, p)
        assert all(d.counters.total == 4 for d in array.disks)
        assert array.total_ios == 16

    def test_striped_scan_is_sequential_per_disk(self, array):
        extent = array.create_file()
        for __ in range(40):
            array.allocate_page(extent)
        for p in range(40):
            array.read_time(extent, p)
        # After the first io on each disk, the per-disk streams are
        # strictly sequential.
        for disk in array.disks:
            assert disk.counters.random == 1
            assert disk.counters.sequential == 9

    def test_interleaving_two_files_costs_first_touch_only(self, array):
        # With the track-buffer stream memory, alternating between two
        # files seeks only when each stream is first touched; after
        # that both streams are remembered and resume cheaply.
        e1 = array.create_file()
        e2 = array.create_file()
        for __ in range(40):
            array.allocate_page(e1)
        for __ in range(200):
            array.allocate_page(e2)
        for disk in array.disks:
            disk.reset()
        for p in range(20):
            array.read_time(e1, p)
            array.read_time(e2, 100 + p)
        randoms = sum(d.counters.random for d in array.disks)
        assert randoms == 8  # one first touch per stream per disk

    def test_busy_time_and_reset(self, array):
        extent = array.create_file()
        array.allocate_page(extent)
        array.read_time(extent, 0)
        assert array.busy_time > 0
        for disk in array.disks:
            disk.reset()
        assert array.busy_time == 0.0
        assert array.total_ios == 0

    def test_disk_of(self, array):
        extent = array.create_file()
        for __ in range(5):
            array.allocate_page(extent)
        assert extent.address(0).disk_id == 0
        assert extent.address(4).disk_id == 0
        assert extent.address(3).disk_id == 3
