"""ASM-Cache (Section 7.1): slowdown-aware cache way partitioning.

For every application and every possible way allocation ``n``, the
slowdown is estimated from ASM's aggregate quantum statistics:

::

    slowdown_n = CAR_alone / CAR_n
    CAR_n = (quantum-hits + quantum-misses) /
            (Q - (quantum-hits_n - quantum-hits) *
                 (quantum-miss-time - quantum-hit-time))

``quantum-hits_n`` comes straight from the auxiliary tag store's way-hit
histogram — the reason this extension is trivial for ASM and non-trivial
for per-request models (they would need per-request hit/miss predictions
for every hypothetical allocation).

Ways are then assigned with the look-ahead algorithm on *marginal slowdown
utility*: the decrease in estimated slowdown per extra way.

When the quantum's telemetry is degraded (any core's estimate confidence
below :data:`~repro.models.base.POLICY_CONFIDENCE_FLOOR`), repartitioning
on the polluted statistics would thrash the cache; the policy keeps the
previous allocation and counts the skip instead
(:meth:`~repro.policies.base.AsmPolicy.low_confidence`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.models.asm import AsmModel
from repro.policies.base import AsmPolicy
from repro.policies.partition import lookahead_partition


class AsmCachePolicy(AsmPolicy):
    name = "asm-cache"

    def __init__(self, asm: AsmModel) -> None:
        super().__init__(asm)
        self.last_allocation: Optional[List[int]] = None
        # Estimated slowdown of each core under its granted allocation,
        # consumed by ASM-Cache-Mem coordination (Section 7.2).
        self.projected_slowdowns: List[float] = []

    def slowdown_curve(self, core: int) -> List[float]:
        """Estimated slowdown for every way allocation 0..associativity."""
        assert self.system is not None
        ways = self.system.config.llc.associativity
        return [self.asm.slowdown_for_ways(core, n) for n in range(ways + 1)]

    def on_quantum_end(self) -> None:
        assert self.system is not None
        if self.low_confidence():
            return
        total_ways = self.system.config.llc.associativity
        curves = [self.slowdown_curve(core) for core in range(self.num_cores)]
        # Marginal slowdown utility == marginal utility of -slowdown.
        utilities = [[-s for s in curve] for curve in curves]
        allocation = lookahead_partition(utilities, total_ways)
        self.last_allocation = allocation
        self.projected_slowdowns = [
            curves[core][allocation[core]] for core in range(self.num_cores)
        ]
        self.trace("reallocation", allocation=list(allocation))
        self.system.hierarchy.llc.set_partition(allocation)
