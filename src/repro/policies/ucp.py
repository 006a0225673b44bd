"""Utility-based Cache Partitioning [56].

UCP monitors each application's hits-versus-ways curve with a sampled
shadow tag directory (UMON-DSS) and repartitions the cache ways each
quantum with the look-ahead algorithm, maximising total hit count. The
paper's criticism (Section 7.1): miss counts are only a proxy for
performance, so UCP can trade a slowdown-critical way away for raw hits.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.auxtag import AuxiliaryTagStore
from repro.harness.system import System
from repro.policies.base import Policy
from repro.policies.partition import lookahead_partition

# Sets each application's UMON shadow tag directory samples (UMON-DSS).
UMON_SAMPLED_SETS = 32


class UcpPolicy(Policy):
    name = "ucp"

    def __init__(self) -> None:
        super().__init__()
        self.monitors: List[AuxiliaryTagStore] = []
        self.last_allocation: Optional[List[int]] = None

    def attach(self, system: System) -> None:
        super().attach(system)
        self.monitors = [
            AuxiliaryTagStore(system.config.llc, UMON_SAMPLED_SETS)
            for _ in range(system.config.num_cores)
        ]
        system.hierarchy.access_listeners.append(self._on_access)

    def _on_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        self.monitors[core].access(line_addr)

    def _curves(self) -> List[List[float]]:
        """Each application's utility curve for this quantum."""
        return [monitor.utility_curve() for monitor in self.monitors]

    def on_quantum_end(self) -> None:
        assert self.system is not None
        curves = self._curves()
        allocation = lookahead_partition(
            curves, self.system.config.llc.associativity
        )
        self.last_allocation = allocation
        self.system.hierarchy.llc.set_partition(allocation)
        for monitor in self.monitors:
            monitor.reset_stats()
