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


def reference_serve(disk, streams, block):
    """``Disk`` before the newest stream was tested first, verbatim:
    one loop over every remembered stream, then pop and append.

    Returns (regime, index, service time, streams after)."""
    best = ("random", None)
    last = len(streams) - 1
    for i, pos in enumerate(streams):
        delta = block - pos
        if delta == 1:
            if i == last:
                best = ("sequential", i)
                break
            best = ("almost_sequential", i)
        elif 0 <= delta <= disk.almost_seq_window and best[0] == "random":
            best = ("almost_sequential", i)
    regime, index = best
    rates = {
        "sequential": disk.profile.seq_ios_per_sec,
        "almost_sequential": disk.profile.almost_seq_ios_per_sec,
        "random": disk.profile.random_ios_per_sec,
    }
    streams = list(streams)
    if index is not None:
        streams.pop(index)
    streams.append(block)
    if len(streams) > disk.stream_memory:
        streams.pop(0)
    return regime, index, 1.0 / rates[regime], streams


def assert_serves_like_reference(disk, block):
    regime, index, service, streams = reference_serve(disk, disk._streams, block)
    assert disk._match(block) == (regime, index)
    assert disk.service_time(block) == service
    assert disk._streams == streams
    return regime, index


#: A request either names a block or steps from the newest stream, so
#: histories keep continuing, re-reading and catching up with their
#: streams (the narrow block range makes streams meet: two at one
#: position, or an older one within the window of the newest).
REQUESTS = st.one_of(
    st.tuples(st.just("block"), st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("block"), st.integers(min_value=0, max_value=5_000)),
    st.tuples(st.just("step"), st.integers(min_value=-2, max_value=3)),
)


class TestNewestStreamFirst:
    """The newest stream is tested first; every answer, index and
    stream list must equal the full loop's (``reference_serve``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        stream_memory=st.sampled_from([1, 2, 4]),
        window=st.sampled_from([1, 16]),
        requests=st.lists(REQUESTS, min_size=1, max_size=80),
    )
    def test_agrees_with_the_full_loop(self, stream_memory, window, requests):
        disk = Disk(0, almost_seq_window=window, stream_memory=stream_memory)
        for kind, value in requests:
            newest = disk._streams[-1] if disk._streams else 0
            block = value if kind == "block" else max(0, newest + value)
            assert_serves_like_reference(disk, block)

    @pytest.mark.parametrize("stream_memory", [2, 4])
    def test_older_stream_also_matches(self, stream_memory):
        # A stream from 5 catches up with the one left at 7: from then
        # on every request continues the newest and also lies within
        # the window of (or right after) the older one.
        disk = Disk(0, stream_memory=stream_memory)
        for block in (7, 5, 6):
            assert_serves_like_reference(disk, block)
        assert disk._streams == [7, 6]
        for block, streams in ((7, [7, 7]), (8, [7, 8]), (9, [7, 9])):
            assert assert_serves_like_reference(disk, block) == ("sequential", 1)
            assert disk._streams == streams


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
