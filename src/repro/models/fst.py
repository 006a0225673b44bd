"""FST [15]: Fairness via Source Throttling's slowdown estimator.

FST computes slowdown as shared/alone execution time, estimating the alone
time by subtracting, from the shared time, the cycles by which each request
was delayed due to interference:

* **memory**: per-request interference cycles from the controller, divided
  by a parallelism factor (as in STFM);
* **shared cache**: contention misses identified with a per-application
  *pollution filter* — a (counting) Bloom filter of the application's
  blocks evicted by other applications — each charged the average excess of
  a miss over a hit.

``filter_counters=None`` models the idealised exact filter the paper uses
as the "unsampled" configuration; a finite size models the practical
Bloom-filter build whose aliasing degrades accuracy (Figure 3).

The alone-time estimate is the one FST shares with PTCA
(:class:`~repro.models.perrequest.PerRequestModel`). Counter reads
(contention misses, interference cycles, miss-busy cycles) go through the
model's :class:`~repro.telemetry.counters.CounterBank`; see
:class:`~repro.models.base.EstimateGuard` for the degradation semantics.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.pollution_filter import PollutionFilter
from repro.harness.system import System
from repro.models.perrequest import PerRequestModel


class FstModel(PerRequestModel):
    """FST prior-work baseline: per-request delay + pollution filter.

    The pollution filters persist across quanta; the counters and the
    accounting reset at each boundary."""

    name = "fst"

    def __init__(self, filter_counters: Optional[int] = None) -> None:
        super().__init__()
        self.filter_counters = filter_counters
        self.filters: List[PollutionFilter] = []

    def attach(self, system: System) -> None:
        """Hook pollution filters and per-request accounting into ``system``."""
        super().attach(system)
        n = system.config.num_cores
        bank = self.bank
        assert bank is not None
        self.filters = [PollutionFilter(self.filter_counters) for _ in range(n)]
        self._contention_misses = bank.vec("contention_misses")
        system.hierarchy.llc.add_eviction_listener(self._on_evict)
        system.hierarchy.access_listeners.append(self._on_access)

    def _on_evict(self, line_addr: int, owner: int, evictor: int) -> None:
        if owner != evictor:
            self.filters[owner].on_evicted_by_other(line_addr)

    def _on_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        if hit:
            return
        if self.filters[core].is_contention_miss(line_addr):
            self._contention_misses.add(core)
            self.filters[core].on_refetch(line_addr)

    def contention(self, core: int) -> Tuple[float, float, List[str]]:
        """The pollution filter's contention-miss count, unscaled."""
        return self._contention_misses.read(core), 1.0, []
