"""Tests for the open-loop arrival-stream generators."""

import pytest

from repro.errors import ConfigError
from repro.service import (
    ArrivalConfig,
    mixed_tenant_config,
    onoff_stream,
    poisson_stream,
)
from repro.service.arrivals import DEFAULT_KIND, DEFAULT_MAX_PAGES
from repro.workloads import WorkloadKind


class TestArrivalConfig:
    def test_tenant_rotation(self):
        config = ArrivalConfig(tenants=("a", "b"), tenant_block=2)
        assert [config.tenant_of(i) for i in range(6)] == [0, 0, 1, 1, 0, 0]

    def test_per_tenant_kind_and_pages(self):
        config = ArrivalConfig(
            tenants=("a", "b"),
            tenant_kinds=(WorkloadKind.ALL_IO, WorkloadKind.ALL_CPU),
            tenant_max_pages=(2000, 150),
        )
        assert config.kind_of(0) == WorkloadKind.ALL_IO
        assert config.max_pages_of(1) == 150

    def test_defaults_fall_back_to_global_knobs(self):
        config = ArrivalConfig()
        assert config.kind_of(0) == DEFAULT_KIND
        assert config.max_pages_of(1) == DEFAULT_MAX_PAGES

    def test_mismatched_tenant_vectors_rejected(self):
        with pytest.raises(ConfigError):
            ArrivalConfig(tenants=("a", "b"), tenant_kinds=(WorkloadKind.ALL_IO,))
        with pytest.raises(ConfigError):
            ArrivalConfig(tenants=("a",), tenant_max_pages=(100, 200))
        with pytest.raises(ConfigError):
            ArrivalConfig(tenants=("a",), tenant_max_pages=(0,))


class TestStreams:
    def test_poisson_is_deterministic(self):
        first = poisson_stream(rate=0.2, seed=9)
        second = poisson_stream(rate=0.2, seed=9)
        assert [s.arrival_time for s in first] == [
            s.arrival_time for s in second
        ]
        assert [t.seq_time for s in first for t in s.tasks] == [
            t.seq_time for s in second for t in s.tasks
        ]

    def test_arrivals_are_sorted_and_stamped(self):
        stream = poisson_stream(rate=0.5, seed=1)
        arrivals = [s.arrival_time for s in stream]
        assert arrivals == sorted(arrivals)
        for s in stream:
            for task in s.tasks:
                assert task.arrival_time == s.arrival_time

    def test_bundle_dependencies_stay_inside_the_bundle(self):
        config = ArrivalConfig(max_bundle=3)
        stream = poisson_stream(rate=0.5, seed=4, config=config)
        assert any(s.n_fragments > 1 for s in stream)
        for s in stream:
            ids = {t.task_id for t in s.tasks}
            for task in s.tasks:
                assert set(task.depends_on) <= ids

    def test_slo_deadlines_scale_with_work(self):
        stream = poisson_stream(
            rate=0.5, seed=0, config=ArrivalConfig(slo_stretch=6.0)
        )
        for s in stream:
            assert s.deadline is not None
            assert s.deadline > s.arrival_time
        untagged = poisson_stream(
            rate=0.5, seed=0, config=ArrivalConfig(slo_stretch=None)
        )
        assert all(s.deadline is None for s in untagged)

    def test_onoff_confines_arrivals_to_on_windows(self):
        stream = onoff_stream(
            rate=0.2, seed=3, on_fraction=0.25, period=40.0
        )
        for s in stream:
            assert s.arrival_time % 40.0 <= 0.25 * 40.0 + 1e-9

    def test_onoff_is_burstier_than_poisson(self):
        # Same average rate: the on-off stream packs arrivals into a
        # quarter of the timeline, so its inter-arrival gaps are more
        # variable than the memoryless stream's.
        config = ArrivalConfig(n_submissions=40)
        smooth = poisson_stream(rate=0.2, seed=7, config=config)
        bursty = onoff_stream(
            rate=0.2, seed=7, on_fraction=0.25, period=40.0, config=config
        )

        def gap_variance(stream):
            times = [s.arrival_time for s in stream]
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            return sum((g - mean) ** 2 for g in gaps) / len(gaps)

        assert gap_variance(bursty) > gap_variance(smooth)

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            poisson_stream(rate=0.0, seed=0)
        with pytest.raises(ConfigError):
            onoff_stream(rate=-1.0, seed=0)

    def test_onoff_shape_validation(self):
        with pytest.raises(ConfigError):
            onoff_stream(rate=0.1, seed=0, on_fraction=0.0)
        with pytest.raises(ConfigError):
            onoff_stream(rate=0.1, seed=0, period=0.0)

    def test_pool_cache_streams_are_byte_identical_to_cold(self):
        # λ sweeps rebuild streams per point; the memoized task pools
        # (and replayed id counters) must not change a single byte.
        from repro.service.arrivals import clear_pool_cache

        def digest(stream):
            return [
                (
                    s.name,
                    s.tenant,
                    s.submission_id,
                    s.arrival_time.hex(),
                    None if s.deadline is None else s.deadline.hex(),
                    [
                        (
                            t.task_id,
                            t.seq_time.hex(),
                            t.io_count.hex(),
                            tuple(sorted(t.depends_on)),
                        )
                        for t in s.tasks
                    ],
                )
                for s in stream
            ]

        config = mixed_tenant_config(12)
        clear_pool_cache()
        cold = poisson_stream(rate=0.5, seed=3, config=config)
        warm = poisson_stream(rate=0.5, seed=3, config=config)
        assert digest(warm) == digest(cold)
        # A different rate shares the pools but re-draws arrivals.
        other = poisson_stream(rate=2.0, seed=3, config=config)
        assert digest(other) != digest(cold)
        assert [t.seq_time for s in other for t in s.tasks] == [
            t.seq_time for s in cold for t in s.tasks
        ]
        # And a genuinely cold rebuild of that rate matches the warm one.
        warm_other = digest(other)
        clear_pool_cache()
        assert digest(
            poisson_stream(rate=2.0, seed=3, config=config)
        ) == warm_other

    def test_mixed_tenant_config_shape(self):
        config = mixed_tenant_config(24)
        assert config.n_submissions == 24
        assert config.tenants == ("etl", "olap")
        stream = poisson_stream(rate=0.5, seed=0, config=config)
        etl = [s for s in stream if s.tenant == "etl"]
        olap = [s for s in stream if s.tenant == "olap"]
        # Blocks of five: indices 0-4, 10-14, 20-23 are etl.
        assert len(etl) == 14
        assert len(olap) == 10
        # The etl tenant is IO-bound, the olap tenant CPU-bound.
        assert min(s.io_rate for s in etl) > 30.0
        assert max(s.io_rate for s in olap) < 30.0
