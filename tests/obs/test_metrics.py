"""Tests for the unified metrics registry."""

import pytest

from repro.errors import ObsError
from repro.obs import Counter, Histogram, MetricsRegistry, Series, percentile


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)

    def test_empty_is_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ObsError):
            percentile([1.0], 101.0)
        with pytest.raises(ObsError):
            percentile([1.0], -1.0)

    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 37.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], p) == 7.5

    def test_identical_samples_collapse_to_the_value(self):
        values = [3.25] * 9
        for p in (0.0, 50.0, 95.0, 100.0):
            assert percentile(values, p) == 3.25


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_raises(self):
        with pytest.raises(ObsError):
            Counter("c").inc(-1)


class TestHistogram:
    def test_streaming_percentiles_match_module_percentile(self):
        hist = Histogram("h")
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        hist.observe_many(values[:2])
        hist.observe_many(values[2:])
        assert hist.count == 5
        assert hist.mean == pytest.approx(3.0)
        for p in (50.0, 95.0, 99.0):
            assert hist.percentile(p) == pytest.approx(percentile(values, p))

    def test_queries_work_mid_stream(self):
        hist = Histogram("h")
        hist.observe_many([10.0])
        assert hist.p50 == 10.0
        hist.observe_many([20.0])
        assert hist.p50 == pytest.approx(15.0)

    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.p99 == 0.0

    def test_out_of_range_percentile_raises(self):
        hist = Histogram("h")
        hist.observe_many([1.0])
        with pytest.raises(ObsError):
            hist.percentile(200.0)

    def test_single_observation_dominates_every_percentile(self):
        hist = Histogram("h")
        hist.observe_many([4.5])
        assert hist.p50 == hist.p95 == hist.p99 == 4.5
        assert hist.mean == 4.5
        assert hist.total == 4.5

    def test_identical_observations_have_zero_spread(self):
        hist = Histogram("h")
        hist.observe_many([2.0] * 7)
        assert hist.percentile(0.0) == hist.percentile(100.0) == 2.0
        assert hist.mean == 2.0

    def test_observe_many_empty_batch_is_a_no_op(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0 and hist.p50 == 0.0


class TestSeries:
    def test_append_preserves_order_and_last(self):
        series = Series("s")
        assert series.last is None
        series.append(0.0, "closed")
        series.append(1.5, "open")
        assert series.points == [(0.0, "closed"), (1.5, "open")]
        assert series.last == "open"


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert "a" in registry
        assert len(registry) == 1

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObsError):
            registry.gauge("x")

    def test_names_in_registration_order(self):
        registry = MetricsRegistry()
        registry.gauge("z")
        registry.counter("a")
        assert registry.names() == ["z", "a"]

    def test_as_dict_digests_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe_many([2.0])
        registry.series("s").append(0.5, "open")
        digest = registry.as_dict()
        assert digest["counters"] == {"c": 3}
        assert digest["gauges"] == {"g": 1.5}
        assert digest["histograms"]["h"]["count"] == 1
        assert digest["histograms"]["h"]["p50"] == 2.0
        assert digest["series"]["s"] == [[0.5, "open"]]

    def test_to_table_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("service.completed").inc(9)
        registry.histogram("service.response_time").observe_many([1.0])
        table = registry.to_table()
        assert "service.completed" in table
        assert "service.response_time" in table
        assert "histogram" in table
