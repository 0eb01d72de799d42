"""Tests for service metrics: percentiles, rollups, timelines."""

import pytest

from repro.config import paper_machine
from repro.errors import ObsError, ServiceError
from repro.obs import percentile
from repro.service import (
    QueryService,
    format_timeline,
    poisson_stream,
    utilization_timeline,
)


class TestPercentile:
    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile(values, 0.0) == pytest.approx(1.0)
        assert percentile(values, 100.0) == pytest.approx(4.0)

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0)

    def test_singleton(self):
        assert percentile([7.0], 95.0) == pytest.approx(7.0)

    def test_empty_is_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_bad_percentile_raises(self):
        # The shared implementation lives in repro.obs now; it raises
        # ObsError (still a ReproError) on an out-of-range p.
        with pytest.raises(ObsError):
            percentile([1.0], 101.0)
        with pytest.raises(ObsError):
            percentile([1.0], -1.0)


class TestServiceMetrics:
    @pytest.fixture
    def result(self):
        machine = paper_machine()
        stream = poisson_stream(rate=0.1, seed=2)
        return QueryService(machine, timeline_bucket=50.0).run(stream)

    def test_overall_rolls_up_tenants(self, result):
        metrics = result.metrics
        overall = metrics.overall
        assert overall.offered == sum(
            t.offered for t in metrics.tenants.values()
        )
        assert len(overall.response_times) == overall.completed

    def test_throughput(self, result):
        overall = result.metrics.overall
        assert result.metrics.throughput == pytest.approx(
            overall.completed / result.elapsed
        )

    def test_table_mentions_every_tenant(self, result):
        table = result.metrics.to_table()
        for tenant in result.metrics.tenants:
            assert tenant in table
        assert "p95" in table

    def test_timeline_buckets_cover_the_run(self, result):
        timeline = result.metrics.utilization_timeline
        assert timeline
        assert timeline[0][0] == 0.0
        assert timeline[-1][0] <= result.elapsed
        for __, cpu, io in timeline:
            assert 0.0 <= cpu <= 1.0
            assert 0.0 <= io <= 1.0

    def test_format_timeline(self, result):
        rendered = format_timeline(result.metrics.utilization_timeline)
        assert "utilization timeline" in rendered
        assert "#" in rendered

    def test_timeline_bucket_validation(self, result):
        with pytest.raises(ServiceError):
            utilization_timeline(result.schedule, bucket=0.0)
