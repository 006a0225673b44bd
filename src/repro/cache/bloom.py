"""A counting Bloom filter.

FST's pollution filter must support removal (a block stops being "polluted"
once the application re-fetches it), so we use the counting variant [Bloom,
1970]. Hashing is double hashing over two independent multiplicative hashes,
which keeps the filter deterministic across processes (Python's builtin
``hash`` on ints is identity-like and fine, but we avoid relying on it).
"""

from __future__ import annotations

_MULT1 = 0x9E3779B97F4A7C15
_MULT2 = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1

#: Hash functions per key.
NUM_HASHES = 4


def _mix(value: int, mult: int) -> int:
    value = (value * mult) & _MASK64
    value ^= value >> 29
    value = (value * mult) & _MASK64
    value ^= value >> 32
    return value


class CountingBloomFilter:
    """Counting Bloom filter over non-negative integer keys."""

    def __init__(self, num_counters: int) -> None:
        if num_counters <= 0:
            raise ValueError("num_counters must be positive")
        self.num_counters = num_counters
        self._counters = [0] * num_counters

    def _indices(self, key: int):
        h1 = _mix(key, _MULT1)
        h2 = _mix(key, _MULT2) | 1
        for i in range(NUM_HASHES):
            yield (h1 + i * h2) % self.num_counters

    def insert(self, key: int) -> None:
        for idx in self._indices(key):
            self._counters[idx] += 1

    def remove(self, key: int) -> None:
        """Remove one insertion of ``key`` if it may be present.

        Removing a key that was never inserted is a no-op rather than an
        error: with hash collisions the caller cannot always know.
        """
        indices = list(self._indices(key))
        if all(self._counters[idx] > 0 for idx in indices):
            for idx in indices:
                self._counters[idx] -= 1

    def __contains__(self, key: int) -> bool:
        return all(self._counters[idx] > 0 for idx in self._indices(key))

    def clear(self) -> None:
        self._counters = [0] * self.num_counters

    @property
    def load(self) -> float:
        """Fraction of non-zero counters (useful to gauge saturation)."""
        occupied = sum(1 for c in self._counters if c)
        return occupied / self.num_counters
