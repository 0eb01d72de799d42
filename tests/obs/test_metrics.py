"""Tests for metrics digests: the percentile, latency summaries and the
metrics table."""

import pytest

from repro.errors import ObsError
from repro.obs import metrics_table, percentile, summarize


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


class TestHistogram:
    """A digest's histogram entry: :func:`summarize` of a latency list."""

    def test_empty_histogram(self):
        assert summarize([]) == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0
        }

    def test_percentiles_match_the_one_percentile(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        summary = summarize(values)
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(3.0)
        for p in (50, 95, 99):
            assert summary[f"p{p}"] == percentile(values, float(p))

    def test_mean_sums_the_sorted_values(self):
        # Float addition is not associative: the mean is taken over the
        # sorted list, whatever order the latencies came in.
        values = [1e16, 1.0, -1e16, 1.0]
        assert summarize(values)["mean"] == sum(sorted(values)) / 4

    def test_single_observation_dominates_every_percentile(self):
        assert summarize([4.5]) == {
            "count": 1, "mean": 4.5, "p50": 4.5, "p95": 4.5, "p99": 4.5
        }

    def test_identical_observations_have_zero_spread(self):
        summary = summarize([2.0] * 7)
        assert summary["p50"] == summary["p99"] == summary["mean"] == 2.0


def _digest():
    return {
        "counters": {"service.completed": 9, "a.pages": 559},
        "gauges": {"sim.elapsed": 5.866144142593499},
        "histograms": {"service.response_time": summarize([1.0, 2.0])},
        "series": {"service.breaker_state": [[0.0, "closed"], [1.5, "open"]]},
    }


class TestMetricsTable:
    def test_one_row_format_per_kind(self):
        rows = metrics_table(_digest()).splitlines()[3:]
        assert [row.split()[:2] for row in rows] == [
            ["a.pages", "counter"],
            ["service.breaker_state", "series"],
            ["service.completed", "counter"],
            ["service.response_time", "histogram"],
            ["sim.elapsed", "gauge"],
        ]
        values = [row.split(None, 2)[2].rstrip() for row in rows]
        assert values == [
            "559",
            "2 points",
            "9",
            "n=2 mean=1.5000 p50=1.5000 p95=1.9500 p99=1.9900",
            "5.86614",
        ]

    def test_rows_are_sorted_by_name_across_kinds(self):
        rows = metrics_table(_digest()).splitlines()[3:]
        names = [row.split()[0] for row in rows]
        assert names == sorted(names)

    def test_empty_sections_give_a_titled_table(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}
        lines = metrics_table(empty).splitlines()
        assert lines[0] == "metrics"
        assert lines[1].split() == ["metric", "kind", "value"]
