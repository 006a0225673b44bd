"""Evaluation metrics (Sections 5 and 7.1 of the paper).

* slowdown estimation error: |estimated - actual| / actual (percent);
* unfairness: maximum slowdown in a workload [13, 30, 31, ...];
* system performance: harmonic speedup [19, 38] — the harmonic mean of
  per-application speedups, N / sum(slowdown_i).

Every float sum here adds left to right: ``sum()`` compensates float sums
from Python 3.12 on, so a mean persisted or pinned through it would
depend on the interpreter's version.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def estimation_error_pct(estimated: float, actual: float) -> float:
    """Absolute slowdown estimation error in percent (Section 5)."""
    if actual <= 0 or math.isnan(actual):
        raise ValueError(f"actual slowdown must be positive, got {actual}")
    return abs(estimated - actual) / actual * 100.0


def _total(values: Iterable[float]) -> float:
    """Plain float adds, left to right (see the module docstring)."""
    total = 0.0
    for value in values:
        total += value
    return total


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return _total(values) / len(values)


def stdev(values: Iterable[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(_total((v - mu) ** 2 for v in values) / (len(values) - 1))


def max_slowdown(slowdowns: Sequence[float]) -> float:
    """Unfairness metric: the worst per-application slowdown."""
    if not slowdowns:
        raise ValueError("empty slowdown list")
    return max(slowdowns)


def harmonic_speedup(slowdowns: Sequence[float]) -> float:
    """System performance: N / sum(slowdown_i)."""
    if not slowdowns:
        raise ValueError("empty slowdown list")
    total = _total(slowdowns)
    if total <= 0:
        raise ValueError("slowdowns must be positive")
    return len(slowdowns) / total


def error_histogram(
    errors: Iterable[float], bin_edges: Sequence[float]
) -> List[float]:
    """Fraction of ``errors`` in each [edge_i, edge_i+1) bin; the final bin
    is open-ended. Used for the Figure 4 error distribution."""
    errors = list(errors)
    if not errors:
        raise ValueError("empty error list")
    counts = [0] * len(bin_edges)
    for error in errors:
        placed = False
        for i in range(len(bin_edges) - 1):
            if bin_edges[i] <= error < bin_edges[i + 1]:
                counts[i] += 1
                placed = True
                break
        if not placed:
            counts[-1] += 1
    return [c / len(errors) for c in counts]
