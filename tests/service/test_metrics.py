"""Tests for service metrics: percentiles, rollups, timelines."""

import pytest

from repro.config import paper_machine
from repro.errors import ObsError, ServiceError
from repro.faults.retry import RetryPolicy
from repro.obs import percentile
from repro.service import (
    ArrivalConfig,
    QueryService,
    TenantMetrics,
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
        return QueryService(machine).run(stream)

    def test_overall_rolls_up_tenants(self):
        # A tight queue, one retry and enforced deadlines with grace:
        # some submissions are shed, some cancelled, one degraded.
        service = QueryService(
            paper_machine(),
            queue_capacity=2,
            max_inflight_fragments=4,
            retry=RetryPolicy(max_retries=1, base_delay=0.5, max_delay=4.0),
            deadline_policy="shed",
            deadline_grace=3.0,
        )
        config = ArrivalConfig(n_submissions=40, slo_stretch=4.0)
        metrics = service.run(
            poisson_stream(rate=0.3, seed=1, config=config)
        ).metrics
        overall = metrics.overall
        tenants = list(metrics.tenants.values())
        assert len(tenants) == 2
        assert overall.rejected and overall.deadline_cancelled
        assert overall.degraded and overall.retries
        for name in (
            "offered",
            "admitted",
            "rejected",
            "completed",
            "retries",
            "deadline_cancelled",
            "degraded",
            "slo_tagged",
            "slo_misses",
        ):
            assert getattr(overall, name) == sum(
                getattr(tm, name) for tm in tenants
            ), name
        assert overall.response_times == [
            t for tm in tenants for t in tm.response_times
        ]
        assert len(overall.response_times) == overall.completed
        for tm in tenants:
            assert tm.offered == (
                tm.completed + tm.rejected + tm.deadline_cancelled
            )

    def test_throughput(self, result):
        overall = result.metrics.overall
        assert result.metrics.throughput == pytest.approx(
            overall.completed / result.elapsed
        )

    def test_reads_fold_no_outcome(self, result, monkeypatch):
        # ``overall`` is folded once, when the metrics are built.
        folds = []
        fold = TenantMetrics.of.__func__
        monkeypatch.setattr(
            TenantMetrics,
            "of",
            classmethod(lambda cls, *a: folds.append(a) or fold(cls, *a)),
        )
        metrics = result.metrics
        metrics.to_table()
        metrics.sections()
        assert metrics.throughput > 0
        assert folds == []

    def test_table_mentions_every_tenant(self, result):
        table = result.metrics.to_table()
        for tenant in result.metrics.tenants:
            assert tenant in table
        assert "p95" in table

    def test_timeline_buckets_cover_the_run(self, result):
        timeline = utilization_timeline(result.schedule, bucket=50.0)
        assert timeline
        assert timeline[0][0] == 0.0
        assert timeline[-1][0] <= result.elapsed
        for __, cpu, io in timeline:
            assert 0.0 <= cpu <= 1.0
            assert 0.0 <= io <= 1.0

    def test_format_timeline(self, result):
        rendered = format_timeline(
            utilization_timeline(result.schedule, bucket=50.0)
        )
        assert "utilization timeline" in rendered
        assert "#" in rendered

    def test_timeline_bucket_validation(self, result):
        with pytest.raises(ServiceError):
            utilization_timeline(result.schedule, bucket=0.0)
