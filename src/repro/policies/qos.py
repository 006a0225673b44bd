"""Soft slowdown guarantees (Section 7.3).

:class:`AsmQosPolicy` ("ASM-QoS-X") allocates to the application of
interest the *fewest* cache ways whose estimated slowdown stays within the
bound X, then partitions the remaining ways among the other applications to
minimise their slowdowns (look-ahead on marginal slowdown utility).

:class:`NaiveQosPolicy` is the paper's strawman: it gives the application
of interest the whole cache, meeting any achievable bound but slowing
everyone else down dramatically.
"""

from __future__ import annotations

from typing import List, Optional

from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.policies.base import AsmPolicy, Policy
from repro.policies.partition import lookahead_partition


class AsmQosPolicy(AsmPolicy):
    name = "asm-qos"

    def __init__(self, asm: AsmModel, target_core: int, slowdown_bound: float) -> None:
        super().__init__(asm)
        if slowdown_bound < 1.0:
            raise ValueError("a slowdown bound below 1.0 is unsatisfiable")
        self.target_core = target_core
        self.slowdown_bound = slowdown_bound
        self.last_allocation: Optional[List[int]] = None

    def attach(self, system: System) -> None:
        if not 0 <= self.target_core < system.config.num_cores:
            raise ValueError("target core out of range")
        super().attach(system)

    def on_quantum_end(self) -> None:
        assert self.system is not None
        # A QoS decision on polluted estimates could yank ways from the
        # protected application; keep the previous partition.
        if self.low_confidence():
            return
        total_ways = self.system.config.llc.associativity
        others = [c for c in range(self.num_cores) if c != self.target_core]

        # Smallest allocation meeting the bound (all remaining ways must
        # still cover the other applications with >= 1 way each).
        max_target = total_ways - len(others)
        target_ways = max_target
        for n in range(1, max_target + 1):
            if self.asm.slowdown_for_ways(self.target_core, n) <= self.slowdown_bound:
                target_ways = n
                break

        remaining = total_ways - target_ways
        utilities = [
            [-self.asm.slowdown_for_ways(core, n) for n in range(remaining + 1)]
            for core in others
        ]
        other_alloc = lookahead_partition(utilities, remaining)
        allocation = [0] * self.num_cores
        allocation[self.target_core] = target_ways
        for core, ways in zip(others, other_alloc):
            allocation[core] = ways
        self.last_allocation = allocation
        self.trace("reallocation", allocation=list(allocation))
        self.system.hierarchy.llc.set_partition(allocation)


class NaiveQosPolicy(Policy):
    name = "naive-qos"

    def __init__(self, target_core: int) -> None:
        super().__init__()
        self.target_core = target_core

    def attach(self, system: System) -> None:
        super().attach(system)
        # The naive allocation is static; install it immediately.
        self._install()

    def _install(self) -> None:
        assert self.system is not None
        total_ways = self.system.config.llc.associativity
        allocation = [0] * self.num_cores
        allocation[self.target_core] = total_ways
        self.system.hierarchy.llc.set_partition(allocation)

    def on_quantum_end(self) -> None:
        self._install()
