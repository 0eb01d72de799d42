"""Tests for the single-disk timing model and its regimes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DiskProfile
from repro.errors import ConfigError
from repro.storage import Disk


def classify(disk, block):
    """The regime a request for ``block`` would be served in, unserved."""
    return disk._match(block)[0]


@pytest.fixture
def disk():
    return Disk(0)


class TestClassification:
    def test_first_access_is_random(self, disk):
        assert classify(disk, 10) == "random"

    def test_next_block_is_sequential(self, disk):
        disk.service_time(10)
        assert classify(disk, 11) == "sequential"

    def test_nearby_block_is_almost_sequential(self, disk):
        disk.service_time(10)
        assert classify(disk, 14) == "almost_sequential"
        assert classify(disk, 10 + disk.almost_seq_window) == "almost_sequential"

    def test_same_block_is_almost_sequential(self, disk):
        disk.service_time(10)
        assert classify(disk, 10) == "almost_sequential"

    def test_far_block_is_random(self, disk):
        disk.service_time(10)
        assert classify(disk, 10 + disk.almost_seq_window + 1) == "random"

    def test_backward_block_is_random(self, disk):
        disk.service_time(10)
        assert classify(disk, 9) == "random"


class TestClassifyNamesTheServedRegime:
    """``_match`` is the one classifier: what it reports just before a
    request is the counter ``service_time`` then moves."""

    @settings(max_examples=100, deadline=None)
    @given(
        stream_memory=st.sampled_from([1, 4]),
        blocks=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=60),  # near: streams
                st.integers(min_value=0, max_value=5_000),  # far: seeks
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_classify_then_serve_agree(self, stream_memory, blocks):
        disk = Disk(0, stream_memory=stream_memory)
        for block in blocks:
            regime = classify(disk, block)
            before = getattr(disk.counters, regime)
            total = disk.counters.total
            service = disk.service_time(block)
            assert getattr(disk.counters, regime) == before + 1
            assert disk.counters.total == total + 1
            assert service == disk._service_times[regime]


class TestTiming:
    def test_sequential_stream_hits_seq_bandwidth(self, disk):
        disk.service_time(0)
        total = sum(disk.service_time(b) for b in range(1, 101))
        assert 100 / total == pytest.approx(97.0)

    def test_random_stream_hits_random_bandwidth(self, disk):
        # Strictly scattered blocks: no request ever continues a
        # remembered stream, so every read pays the full seek.
        blocks = [0, 1000, 5000, 300, 9000, 2500, 7000]
        total = sum(disk.service_time(b) for b in blocks)
        assert len(blocks) / total == pytest.approx(35.0)

    def test_interleaved_streams_resume_cheaply(self, disk):
        # Track-buffer model: two interleaved sequential streams both
        # stay in the stream memory, so resumption is not a full seek.
        disk.service_time(0)
        disk.service_time(100000)
        t1 = disk.service_time(1)       # resumes stream A
        t2 = disk.service_time(100001)  # resumes stream B
        random_service = 1.0 / disk.profile.random_ios_per_sec
        assert t1 < random_service
        assert t2 < random_service

    def test_stream_memory_evicts_lru(self):
        disk = Disk(0, stream_memory=2)
        disk.service_time(0)       # stream A
        disk.service_time(1000)    # stream B
        disk.service_time(5000)    # stream C evicts A
        assert classify(disk, 1) == "random"  # A forgotten
        # B is remembered but not the most recent stream, so continuing
        # it is a (cheap) track switch, not a head-sequential read.
        assert classify(disk, 1001) == "almost_sequential"

    def test_interleaved_streams_slower_than_sequential(self, disk):
        # Two interleaved sequential streams far apart force seeks.
        seq_disk = Disk(1)
        seq_total = sum(seq_disk.service_time(b) for b in range(40))
        inter_total = 0.0
        for i in range(20):
            inter_total += disk.service_time(i)
            inter_total += disk.service_time(100000 + i)
        assert inter_total > seq_total

    def test_busy_time_accumulates(self, disk):
        t1 = disk.service_time(0)
        t2 = disk.service_time(1)
        assert disk.busy_time == pytest.approx(t1 + t2)


class TestCounters:
    def test_counts_per_regime(self, disk):
        disk.service_time(0)  # random (first)
        disk.service_time(1)  # sequential
        disk.service_time(5)  # almost sequential
        disk.service_time(500)  # random
        c = disk.counters
        assert (c.sequential, c.almost_sequential, c.random) == (1, 1, 2)
        assert c.total == 4

    def test_reset(self, disk):
        disk.service_time(0)
        disk.reset()
        assert disk.counters.total == 0
        assert disk.busy_time == 0.0
        assert classify(disk, 1) == "random"


class TestConfig:
    def test_custom_profile(self):
        d = Disk(0, DiskProfile(100.0, 50.0, 25.0))
        d.service_time(0)
        assert d.service_time(1) == pytest.approx(1 / 100)
        assert d.service_time(5000) == pytest.approx(1 / 25)

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            Disk(0, almost_seq_window=0)
