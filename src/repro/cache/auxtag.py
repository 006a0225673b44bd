"""Auxiliary tag store (ATS).

Per-application shadow tag directory with the same geometry as the shared
cache, updated on every access of that application only. It therefore tracks
the state the cache *would* have had if the application ran alone
(references [53, 56] in the paper).

Three consumers share this one structure:

* **ASM / PTCA** ask, per access, whether it would have hit alone
  (``AtsOutcome.hit``) — the basis of contention-miss counting.
* **UCP and ASM-Cache** need UMON-style way-hit histograms: a hit at MRU
  stack position ``p`` would still hit with any allocation of ``>= p + 1``
  ways, so the cumulative histogram yields ``hits_with_ways(n)``.
* **Set sampling** (Section 4.4): the ATS is kept only for a subset of sets
  and hit/miss *fractions* from the sampled sets are scaled by total access
  counts.

Shadow tags carry no owner or dirty state, so each sampled set is a plain
list of integer tags in LRU order (LRU first, MRU last), the order
:class:`~repro.cache.replacement.LruSet` keeps its lines in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CacheConfig


@dataclass(frozen=True)
class AtsOutcome:
    """Result of presenting one access to the ATS.

    ``sampled`` is False when the access maps to a non-sampled set, in which
    case ``hit`` and ``stack_position`` are meaningless. Outcomes are
    shared between accesses, so they are read-only.
    """

    sampled: bool
    hit: bool = False
    stack_position: Optional[int] = None


_UNSAMPLED = AtsOutcome(sampled=False)
_MISS = AtsOutcome(sampled=True, hit=False)


class AuxiliaryTagStore:
    """Shadow tags for one application, optionally set-sampled."""

    def __init__(self, config: CacheConfig, sampled_sets: Optional[int] = None) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if sampled_sets is None or sampled_sets >= self.num_sets:
            self.sample_stride = 1
        else:
            if sampled_sets <= 0:
                raise ValueError("sampled_sets must be positive")
            self.sample_stride = max(1, self.num_sets // sampled_sets)
        self._sets: Dict[int, List[int]] = {
            idx: [] for idx in range(0, self.num_sets, self.sample_stride)
        }
        # The outcome of a hit at each MRU-stack position.
        self._hits = [
            AtsOutcome(sampled=True, hit=True, stack_position=position)
            for position in range(self.associativity)
        ]
        # Counters over sampled sets only.
        self.sampled_hits = 0
        self.sampled_misses = 0
        # UMON way-hit histogram: way_hits[p] counts hits at stack position p.
        self.way_hits = [0] * self.associativity
        # Total accesses presented (sampled or not) — the scaling base.
        self.total_accesses = 0

    def access(self, line_addr: int) -> AtsOutcome:
        """Present one shared-cache access of this application to the ATS."""
        self.total_accesses += 1
        num_sets = self.num_sets
        tags = self._sets.get(line_addr % num_sets)
        if tags is None:
            return _UNSAMPLED
        tag = line_addr // num_sets
        if tag in tags:
            index = tags.index(tag)
            position = len(tags) - 1 - index
            self.sampled_hits += 1
            self.way_hits[position] += 1
            del tags[index]
            tags.append(tag)
            return self._hits[position]
        self.sampled_misses += 1
        if len(tags) >= self.associativity:
            del tags[0]
        tags.append(tag)
        return _MISS

    # -- sampled-to-total scaling (Section 4.4) ---------------------------
    @property
    def sampled_accesses(self) -> int:
        return self.sampled_hits + self.sampled_misses

    # -- UMON-style utility curves (UCP Section 7.1) ----------------------
    def hits_with_ways(self, ways: int) -> float:
        """Estimated hits had the application been given ``ways`` ways,
        scaled from sampled sets to all accesses."""
        if ways <= 0:
            return 0.0
        sampled = self.sampled_accesses
        if not sampled:
            return 0.0
        sampled_hits_n = sum(self.way_hits[: min(ways, self.associativity)])
        return sampled_hits_n / sampled * self.total_accesses

    def utility_curve(self) -> List[float]:
        """``hits_with_ways(n)`` for n in 0..associativity."""
        return [self.hits_with_ways(n) for n in range(self.associativity + 1)]

    def reset_stats(self) -> None:
        """Clear counters (tag state is preserved across quanta)."""
        self.sampled_hits = 0
        self.sampled_misses = 0
        self.way_hits = [0] * self.associativity
        self.total_accesses = 0
