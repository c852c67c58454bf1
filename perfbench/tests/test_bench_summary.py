"""The benchmark's statistics: the percentile rule, round medians,
throughput and failure accounting.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import summary  # noqa: E402


def test_p95_needs_ten_samples_beyond_it():
    values = list(range(200))
    # nearest rank 190 of 200: ten samples lie beyond it
    assert summary.percentile(values, 0.95) == pytest.approx(189.5, abs=1e-6)
    with pytest.raises(summary.UnsupportedPercentile):
        summary.percentile(values[:199], 0.95)


def test_p50_needs_ten_samples_beyond_it():
    assert summary.percentile(range(1, 21), 0.50) == pytest.approx(10.5)
    with pytest.raises(summary.UnsupportedPercentile):
        summary.percentile(range(1, 20), 0.50)


@pytest.mark.parametrize("x,a,b,expected", [
    (0.3, 1.0, 1.0, 0.3),
    (0.3, 2.5, 1.0, 0.3 ** 2.5),
    (0.3, 1.0, 4.0, 1.0 - 0.7 ** 4),
    (0.5, 210.5, 210.5, 0.5),
    (0.0, 3.0, 2.0, 0.0),
    (1.0, 3.0, 2.0, 1.0),
])
def test_beta_cdf_closed_forms(x, a, b, expected):
    assert summary.beta_cdf(x, a, b) == pytest.approx(expected, rel=1e-12)


def test_percentile_of_a_constant_is_the_constant():
    assert summary.percentile([4.25] * 300, 0.95) == pytest.approx(4.25)


def test_percentile_is_a_weighted_mean_near_the_rank():
    values = [1.0] * 180 + [100.0] * 40
    p95 = summary.percentile(values, 0.95)
    assert 99.0 < p95 <= 100.0
    # a gap at the quantile is bridged, not jumped across
    gap = [1.0] * 209 + [100.0] * 11
    assert 1.0 < summary.percentile(gap, 0.95) < 100.0


def test_percentile_rejects_q_outside_the_open_interval():
    with pytest.raises(ValueError):
        summary.percentile(range(100), 1.0)


def test_round_medians_are_per_operation():
    rounds = [[1.0, 10.0, 5.0], [3.0, 30.0, 4.0], [2.0, 20.0, 100.0]]
    # one slow round (the 100.0) does not move operation 2's median
    assert summary.round_medians(rounds) == [2.0, 20.0, 5.0]


def test_round_medians_need_equal_rounds():
    with pytest.raises(ValueError):
        summary.round_medians([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        summary.round_medians([])


def test_throughput_uses_the_median_round():
    assert summary.throughput(100, [1.0, 2.0, 10.0]) == 50.0


def test_tally_counts_attempts_and_failures():
    tally = summary.Tally()
    tally.ok()
    assert tally.check(True, "x")
    assert not tally.check(False, "parse error")
    tally.fail("parse error")
    tally.fail("shed")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons == {"parse error": 2, "shed": 1}
    assert tally.ok_share == pytest.approx(2 / 5)


def test_empty_tally_has_no_ok_share():
    assert summary.Tally().ok_share == 0.0
