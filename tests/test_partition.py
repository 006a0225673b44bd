"""Unit tests for the look-ahead partitioning algorithm."""

import pytest

from repro.policies.partition import MIN_WAYS, lookahead_partition


def _linear(slope, ways):
    return [slope * n for n in range(ways + 1)]


def test_allocation_sums_to_total():
    utilities = [_linear(1, 16), _linear(2, 16), _linear(3, 16)]
    allocation = lookahead_partition(utilities, 16)
    assert sum(allocation) == 16
    assert all(w >= 1 for w in allocation)


def test_higher_utility_wins_more_ways():
    utilities = [_linear(1, 8), _linear(10, 8)]
    allocation = lookahead_partition(utilities, 8)
    assert allocation[1] > allocation[0]


def test_flat_curve_gets_minimum():
    utilities = [[0.0] * 9, _linear(5, 8)]
    allocation = lookahead_partition(utilities, 8)
    assert allocation[0] == 1
    assert allocation[1] == 7


def test_lookahead_climbs_past_plateau():
    # App 0: no benefit until 4 ways, then a large step (non-convex).
    stepped = [0, 0, 0, 0, 100, 100, 100, 100, 100]
    gentle = _linear(5, 8)
    allocation = lookahead_partition([stepped, gentle], 8)
    # Greedy per-way would starve app 0; look-ahead must grant it 4 ways.
    assert allocation[0] >= 4


def test_min_ways_respected():
    utilities = [[0.0] * 17, _linear(1, 16)]
    allocation = lookahead_partition(utilities, 16)
    assert allocation == [MIN_WAYS, 16 - MIN_WAYS]


def test_validation_errors():
    with pytest.raises(ValueError):
        lookahead_partition([], 8)
    with pytest.raises(ValueError):
        lookahead_partition([[0, 1]], 8)  # wrong curve length
    with pytest.raises(ValueError):
        lookahead_partition([[0] * 9] * 10, 8)  # MIN_WAYS infeasible


def test_single_app_gets_everything():
    allocation = lookahead_partition([_linear(1, 4)], 4)
    assert allocation == [4]


def test_negative_utility_curves_supported():
    """ASM-Cache passes -slowdown curves; marginal gains still work."""
    curves = [
        [-5.0, -4.0, -3.5, -3.2, -3.1],  # improves quickly
        [-2.0, -1.99, -1.98, -1.97, -1.96],  # nearly flat
    ]
    allocation = lookahead_partition(curves, 4)
    assert sum(allocation) == 4
    assert allocation[0] > allocation[1]
