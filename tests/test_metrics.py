"""Unit tests for evaluation metrics."""

import math

import pytest

from repro.harness import metrics


def test_estimation_error_pct():
    assert metrics.estimation_error_pct(2.0, 2.0) == 0.0
    assert metrics.estimation_error_pct(3.0, 2.0) == pytest.approx(50.0)
    assert metrics.estimation_error_pct(1.0, 2.0) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        metrics.estimation_error_pct(1.0, 0.0)


def test_mean_and_stdev():
    assert metrics.mean([1, 2, 3]) == 2
    assert metrics.stdev([1, 1, 1]) == 0
    assert metrics.stdev([2, 4]) == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        metrics.mean([])


def test_float_sums_add_left_to_right():
    # sum() compensates float sums from Python 3.12 on, where these read
    # 0.19999999999999998 and 5.0; plain adds give one answer everywhere.
    assert metrics.mean([0.1, 0.2, 0.3]) == 0.20000000000000004
    assert metrics.harmonic_speedup([0.1, 0.2, 0.3]) == 4.999999999999999


def test_max_slowdown():
    assert metrics.max_slowdown([1.5, 3.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        metrics.max_slowdown([])


def test_harmonic_speedup():
    # Four unslowed applications: harmonic speedup 1.
    assert metrics.harmonic_speedup([1, 1, 1, 1]) == pytest.approx(1.0)
    # Uniform 2x slowdown halves it.
    assert metrics.harmonic_speedup([2, 2]) == pytest.approx(0.5)


def test_error_histogram():
    hist = metrics.error_histogram([5, 15, 25, 75], [0, 10, 20, 50])
    assert hist == pytest.approx([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        metrics.error_histogram([], [0, 10])
