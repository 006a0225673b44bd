"""The shared last-level cache.

Extends the basic set-associative cache with the features the paper's
mechanisms need:

* per-core hit/miss statistics (ASM's ``CAR_shared`` counters),
* per-core way-quota partitioning (UCP / ASM-Cache / MCFQ enforcement),
* tracking of which core evicted whose line (feeds FST's pollution filters).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.cache import AccessResult
from repro.cache.replacement import Line, LruSet
from repro.config import CacheConfig

# Called as eviction_listener(victim_line_addr, victim_owner, evictor_core).
EvictionListener = Callable[[int, int, int], None]

# Shared result objects for the outcomes that carry no per-access payload.
# ``access``/``allocate`` sit on the simulator's hottest path; callers treat
# the result as read-only, so one allocation can serve every hit and every
# victimless miss.
_HIT = AccessResult(hit=True)
_MISS_NO_VICTIM = AccessResult(hit=False)


class SharedCache:
    """A shared, optionally way-partitioned, set-associative LRU cache."""

    def __init__(self, config: CacheConfig, num_cores: int) -> None:
        config.validate()
        self.config = config
        self.num_cores = num_cores
        self.num_sets = config.num_sets
        self.sets: List[LruSet] = [
            LruSet(config.associativity) for _ in range(self.num_sets)
        ]
        self.partition: Optional[List[int]] = None
        self.hits = [0] * num_cores
        self.misses = [0] * num_cores
        self._eviction_listeners: List[EvictionListener] = []

    def add_eviction_listener(self, listener: EvictionListener) -> None:
        self._eviction_listeners.append(listener)

    def set_partition(self, allocation: Optional[List[int]]) -> None:
        """Install a way-quota partition (one entry per core) or ``None``
        to return to unconstrained shared LRU.

        Quotas are enforced lazily, as in UCP: existing over-quota lines are
        evicted first as new lines arrive, rather than flushed eagerly.
        """
        if allocation is not None:
            if len(allocation) != self.num_cores:
                raise ValueError("allocation must have one entry per core")
            if sum(allocation) != self.config.associativity:
                raise ValueError(
                    "allocation must sum to the cache associativity "
                    f"({sum(allocation)} != {self.config.associativity})"
                )
            if min(allocation) < 0:
                raise ValueError("allocations must be non-negative")
        self.partition = list(allocation) if allocation is not None else None

    def _set_and_tag(self, line_addr: int):
        return self.sets[line_addr % self.num_sets], line_addr // self.num_sets

    def contains(self, line_addr: int) -> bool:
        cache_set, tag = self._set_and_tag(line_addr)
        return cache_set.find(tag) is not None

    def access(self, core: int, line_addr: int, is_write: bool = False) -> AccessResult:
        num_sets = self.num_sets
        index = line_addr % num_sets
        cache_set = self.sets[index]
        tag = line_addr // num_sets
        # LruSet.find and LruSet.touch, inlined.
        line = cache_set.by_tag.get(tag)
        if line is not None:
            self.hits[core] += 1
            lines = cache_set.lines
            lines.remove(line)
            lines.append(line)
            if is_write:
                line.dirty = True
            return _HIT

        self.misses[core] += 1
        new_line = Line(tag, owner=core, dirty=is_write)
        if self.partition is None:
            victim = cache_set.insert(new_line)
        else:
            victim = cache_set.insert_with_quota(new_line, self.partition)
        if victim is None:
            return _MISS_NO_VICTIM
        victim_addr = victim.tag * num_sets + index
        for listener in self._eviction_listeners:
            listener(victim_addr, victim.owner, core)
        return AccessResult(
            hit=False,
            evicted_line_addr=victim_addr,
            writeback_line_addr=victim_addr if victim.dirty else None,
            victim_owner=victim.owner,
        )

    def allocate(self, core: int, line_addr: int) -> AccessResult:
        """Insert a line without demand-access statistics (prefetch fill).

        If the line is already resident this is a no-op (no LRU touch); a
        prefetch must not look like a demand reuse.
        """
        cache_set, tag = self._set_and_tag(line_addr)
        if cache_set.find(tag) is not None:
            return _HIT
        new_line = Line(tag, owner=core, dirty=False)
        if self.partition is None:
            victim = cache_set.insert(new_line)
        else:
            victim = cache_set.insert_with_quota(new_line, self.partition)
        if victim is None:
            return _MISS_NO_VICTIM
        victim_addr = victim.tag * self.num_sets + (line_addr % self.num_sets)
        for listener in self._eviction_listeners:
            listener(victim_addr, victim.owner, core)
        return AccessResult(
            hit=False,
            evicted_line_addr=victim_addr,
            writeback_line_addr=victim_addr if victim.dirty else None,
            victim_owner=victim.owner,
        )
