"""A generic set-associative write-back, write-allocate cache.

No simulated system builds one: the private L1 is folded into the traces
(see :mod:`repro.cpu.trace`), and the shared LLC in
:mod:`repro.cache.shared_cache` builds on the same set machinery but adds
per-core ownership, statistics and way partitioning. This class is the
reference cache: one application's stream through it is that
application's alone-run cache image, which the auxiliary tag store tests
compare against access by access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.replacement import Line, LruSet
from repro.config import CacheConfig


@dataclass
class AccessResult:
    """Outcome of a cache access.

    ``writeback_line_addr`` is the line address of a dirty victim that must
    be written back to the next level, or ``None``. ``victim_owner`` is the
    core that owned the evicted line (shared caches only; a
    :class:`SetAssocCache` reports 0).
    """

    hit: bool
    evicted_line_addr: Optional[int] = None
    writeback_line_addr: Optional[int] = None
    victim_owner: int = 0


class SetAssocCache:
    """Set-associative LRU cache operating on line addresses.

    Addresses given to :meth:`access` are *line* addresses (byte address
    divided by the line size); the caller performs that shift once.
    """

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.sets: List[LruSet] = [
            LruSet(config.associativity) for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_and_tag(self, line_addr: int):
        return self.sets[line_addr % self.num_sets], line_addr // self.num_sets

    def contains(self, line_addr: int) -> bool:
        """Probe without updating LRU state or statistics."""
        cache_set, tag = self._set_and_tag(line_addr)
        return cache_set.find(tag) is not None

    def access(self, line_addr: int, is_write: bool = False) -> AccessResult:
        """Perform an access; on a miss, allocate and maybe evict."""
        cache_set, tag = self._set_and_tag(line_addr)
        line = cache_set.find(tag)
        if line is not None:
            self.hits += 1
            cache_set.touch(line)
            if is_write:
                line.dirty = True
            return AccessResult(hit=True)

        self.misses += 1
        victim = cache_set.insert(Line(tag, owner=0, dirty=is_write))
        if victim is None:
            return AccessResult(hit=False)
        victim_addr = victim.tag * self.num_sets + (line_addr % self.num_sets)
        return AccessResult(
            hit=False,
            evicted_line_addr=victim_addr,
            writeback_line_addr=victim_addr if victim.dirty else None,
        )

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
