"""Percentile/median helpers and the ">= 10 samples beyond" rule."""

import statistics

import pytest

from bench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.median([7.0]) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None),      # not even the median has 10 beyond it
    (20, 50.0), (39, 50.0),
    (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_summarize_quotes_only_the_supported_tail():
    few = stats.summarize([1.0, 2.0, 3.0])
    assert few["n"] == 3 and few["p50"] == 2.0 and few["max"] == 3.0
    assert few["tail_percentile"] is None and few["tail_value"] is None
    many = stats.summarize([float(i) for i in range(100)])
    assert many["tail_percentile"] == 90.0
    assert many["tail_value"] == pytest.approx(89.1)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.6]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.quartile_spread([5.0]) == 0.0
