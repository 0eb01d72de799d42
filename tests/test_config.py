"""Tests for repro.config: machine and disk configuration."""

from dataclasses import replace

import pytest

from repro.config import PAGE_SIZE, DiskProfile, MachineConfig, paper_machine
from repro.core.classify import io_service_time
from repro.core.task import IOPattern
from repro.errors import ConfigError


class TestDiskProfile:
    def test_paper_defaults(self):
        d = DiskProfile()
        assert d.seq_ios_per_sec == 97.0
        assert d.almost_seq_ios_per_sec == 60.0
        assert d.random_ios_per_sec == 35.0

    def test_service_times_are_reciprocal_rates(self):
        # Tasks are calibrated at the almost-sequential rate, not the
        # strict 97 ios/s no engine calibrates against.
        m = paper_machine()
        assert io_service_time(m, IOPattern.SEQUENTIAL) == 1.0 / 60.0
        assert io_service_time(m, IOPattern.RANDOM) == 1.0 / 35.0

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ConfigError):
            DiskProfile(seq_ios_per_sec=0)

    def test_rejects_inverted_regimes(self):
        with pytest.raises(ConfigError):
            DiskProfile(random_ios_per_sec=200.0)


class TestMachineConfig:
    def test_paper_machine_matches_section3(self):
        m = paper_machine()
        assert m.processors == 8
        assert m.disks == 4
        assert m.io_bandwidth == pytest.approx(240.0)
        assert m.bound_threshold == pytest.approx(30.0)
        assert m.page_size == PAGE_SIZE == 8192

    def test_aggregate_bandwidths(self):
        m = paper_machine()
        assert m.total_random_bandwidth == pytest.approx(4 * 35)

    def test_with_processors_returns_modified_copy(self):
        m = paper_machine()
        m2 = replace(m, processors=4)
        assert m2.processors == 4
        assert m.processors == 8
        assert m2.disks == m.disks

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"processors": 0},
            {"disks": 0},
            {"page_size": 16},
            {"signal_latency": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            MachineConfig(**kwargs)

    def test_config_is_frozen(self):
        m = paper_machine()
        with pytest.raises(AttributeError):
            m.processors = 2  # type: ignore[misc]
