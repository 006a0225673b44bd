"""FST's per-application pollution filter.

Tracks cache blocks of an application that were evicted from the shared
cache by *other* applications. A shared-cache miss that hits in the filter
is classified as a contention miss (it would have been a hit alone).

The hardware mechanism is a Bloom filter [8, 15]; an exact (unbounded-size)
mode is provided so experiments can compare "equal-overhead" filters against
idealised ones, mirroring the paper's sampled/unsampled comparisons.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.cache.bloom import CountingBloomFilter


class PollutionFilter:
    """Evicted-by-others filter for one application."""

    def __init__(self, num_counters: Optional[int] = None) -> None:
        """``num_counters=None`` selects the exact (idealised) variant."""
        self._exact: Optional[Set[int]] = set() if num_counters is None else None
        self._bloom: Optional[CountingBloomFilter] = (
            None if num_counters is None else CountingBloomFilter(num_counters)
        )

    def on_evicted_by_other(self, line_addr: int) -> None:
        """The application's block ``line_addr`` was evicted by another app."""
        if self._exact is not None:
            self._exact.add(line_addr)
        else:
            assert self._bloom is not None
            if line_addr not in self._bloom:
                self._bloom.insert(line_addr)

    def on_refetch(self, line_addr: int) -> None:
        """The application fetched ``line_addr`` back into the cache."""
        if self._exact is not None:
            self._exact.discard(line_addr)
        else:
            assert self._bloom is not None
            self._bloom.remove(line_addr)

    def is_contention_miss(self, line_addr: int) -> bool:
        if self._exact is not None:
            return line_addr in self._exact
        assert self._bloom is not None
        return line_addr in self._bloom

    def clear(self) -> None:
        if self._exact is not None:
            self._exact.clear()
        else:
            assert self._bloom is not None
            self._bloom.clear()
