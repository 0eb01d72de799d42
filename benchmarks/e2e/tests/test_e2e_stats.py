"""Quartiles and percentiles as the harness reports them."""

import statistics

import pytest

import e2e_stats as stats


def test_quartiles_match_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, statistics.median(values), q3)


def test_one_sample_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_nearest_rank_percentile():
    ordered = [float(i) for i in range(1, 101)]
    assert stats.percentile(ordered, 50) == 50.0
    assert stats.percentile(ordered, 99) == 99.0
    assert stats.percentile(ordered, 100) == 100.0
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([], 50) == 0.0
