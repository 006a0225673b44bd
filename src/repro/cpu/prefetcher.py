"""Stride prefetcher (Section 6.2 of the paper: degree 4, distance 24).

Watches the demand access stream reaching the shared cache [7, 63]. Once
the same stride is observed twice in a row, it emits prefetch candidates
``distance`` lines ahead of the demand stream, ``degree`` per trigger, with
a small recent-issue filter to avoid duplicates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set

# Recent prefetch targets remembered to suppress duplicates.
FILTER_SIZE = 256


class StridePrefetcher:
    """Per-core stream-based stride prefetcher."""

    def __init__(self, degree: int = 4, distance: int = 24) -> None:
        if degree <= 0 or distance <= 0:
            raise ValueError("degree and distance must be positive")
        self.degree = degree
        self.distance = distance
        self._last_addr: int | None = None
        self._last_stride: int | None = None
        self._confident = False
        self._recent: Set[int] = set()
        self._recent_order: Deque[int] = deque()
        self.issued = 0

    def observe(self, line_addr: int) -> List[int]:
        """Feed one demand access; return line addresses to prefetch."""
        candidates: List[int] = []
        if self._last_addr is not None:
            stride = line_addr - self._last_addr
            if stride != 0 and stride == self._last_stride:
                self._confident = True
            elif stride != self._last_stride:
                self._confident = False
            self._last_stride = stride
        self._last_addr = line_addr

        if self._confident and self._last_stride:
            stride = self._last_stride
            base = line_addr + self.distance * stride
            for k in range(self.degree):
                target = base + k * stride
                if target >= 0 and target not in self._recent:
                    self._remember(target)
                    candidates.append(target)
        self.issued += len(candidates)
        return candidates

    def _remember(self, line_addr: int) -> None:
        self._recent.add(line_addr)
        self._recent_order.append(line_addr)
        if len(self._recent_order) > FILTER_SIZE:
            self._recent.discard(self._recent_order.popleft())

    def reset(self) -> None:
        self._last_addr = None
        self._last_stride = None
        self._confident = False
        self._recent.clear()
        self._recent_order.clear()
