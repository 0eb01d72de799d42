"""Tests for the Section-3 workload generator."""

import pytest

from repro.config import paper_machine
from repro.core import is_io_bound
from repro.core.task import IOPattern
from repro.errors import ConfigError
from repro.workloads import (
    RateBands,
    WorkloadConfig,
    WorkloadKind,
    generate_specs,
    generate_tasks,
    poisson_arrivals,
)

MACHINE = paper_machine()
CONFIG = WorkloadConfig(max_pages=500)


class TestGeneration:
    def test_ten_tasks_by_default(self):
        tasks = generate_tasks(WorkloadKind.RANDOM, seed=0, config=CONFIG)
        assert len(tasks) == 10

    def test_deterministic_per_seed(self):
        a = generate_tasks(WorkloadKind.RANDOM, seed=5, config=CONFIG)
        b = generate_tasks(WorkloadKind.RANDOM, seed=5, config=CONFIG)
        assert [(t.io_rate, t.seq_time) for t in a] == [
            (t.io_rate, t.seq_time) for t in b
        ]

    def test_seeds_differ(self):
        a = generate_tasks(WorkloadKind.RANDOM, seed=1, config=CONFIG)
        b = generate_tasks(WorkloadKind.RANDOM, seed=2, config=CONFIG)
        assert [t.io_rate for t in a] != [t.io_rate for t in b]

    def test_all_cpu_is_all_cpu_bound(self):
        tasks = generate_tasks(WorkloadKind.ALL_CPU, seed=3, config=CONFIG)
        assert not any(is_io_bound(t, MACHINE) for t in tasks)

    def test_all_io_is_all_io_bound(self):
        tasks = generate_tasks(WorkloadKind.ALL_IO, seed=3, config=CONFIG)
        assert all(is_io_bound(t, MACHINE) for t in tasks)

    def test_extreme_is_half_and_half(self):
        tasks = generate_tasks(WorkloadKind.EXTREME, seed=3, config=CONFIG)
        io_bound = [t for t in tasks if is_io_bound(t, MACHINE)]
        assert len(io_bound) == 5
        bands = CONFIG.bands
        for t in tasks:
            if is_io_bound(t, MACHINE):
                assert t.io_rate >= bands.extreme_io_low - 1e-9
            else:
                assert t.io_rate <= bands.extreme_cpu_high + 1e-9

    def test_lengths_in_range(self):
        tasks = generate_tasks(WorkloadKind.RANDOM, seed=4, config=CONFIG)
        for t in tasks:
            assert CONFIG.min_pages <= t.io_count <= CONFIG.max_pages

    def test_index_scan_fraction_zero_gives_all_sequential(self):
        config = WorkloadConfig(max_pages=500, index_scan_fraction=0.0)
        specs = generate_specs(WorkloadKind.ALL_IO, seed=0, config=config)
        assert all(s.pattern == IOPattern.SEQUENTIAL for s in specs)

    def test_index_scans_appear_and_are_io_bound(self):
        config = WorkloadConfig(max_pages=500, index_scan_fraction=1.0)
        found = []
        for seed in range(5):
            specs = generate_specs(WorkloadKind.RANDOM, seed=seed, config=config)
            found.extend(s for s in specs if s.pattern == IOPattern.RANDOM)
        assert found
        for spec in found:
            assert spec.partitioning == "range"
            assert spec.io_rate(MACHINE) > MACHINE.bound_threshold

    def test_specs_and_tasks_agree(self):
        specs = generate_specs(WorkloadKind.RANDOM, seed=7, config=CONFIG)
        tasks = generate_tasks(WorkloadKind.RANDOM, seed=7, config=CONFIG)
        assert [s.n_pages for s in specs] == [int(t.io_count) for t in tasks]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tasks": 0},
            {"min_pages": 0},
            {"min_pages": 10, "max_pages": 5},
            {"index_scan_fraction": 1.5},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadConfig(**kwargs)

    def test_paper_table_has_four_rows(self):
        assert len(RateBands().paper_table()) == 4


class TestPoissonArrivals:
    def test_arrival_times_increase(self):
        tasks = generate_tasks(WorkloadKind.RANDOM, seed=0, config=CONFIG)
        arrived = poisson_arrivals(tasks, rate_per_second=0.5, seed=1)
        times = [t.arrival_time for t in arrived]
        assert times == sorted(times)
        assert times[0] > 0

    def test_profiles_preserved(self):
        tasks = generate_tasks(WorkloadKind.RANDOM, seed=0, config=CONFIG)
        arrived = poisson_arrivals(tasks, rate_per_second=0.5, seed=1)
        assert [t.io_rate for t in arrived] == [t.io_rate for t in tasks]

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            poisson_arrivals([], rate_per_second=0.0, seed=0)
