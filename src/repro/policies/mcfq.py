"""MCFQ-style cache partitioning [27].

Kaseridis et al.'s scheme allocates shared-cache capacity considering both
*cache friendliness* (how well an application converts capacity into hits)
and *memory-level parallelism* (an MLP-rich application hides misses, so
its hits are worth less). We reproduce its decision structure: the UCP
utility of each application is weighted by ``1 / mlp``, so cache-friendly,
MLP-poor applications win capacity.

The paper's criticism (Section 7.1.2): MCFQ still ignores memory
*bandwidth* interference, so under memory-intensive workloads its
allocations can degrade fairness — exactly the behaviour to look for in
the Figure 9 reproduction.
"""

from __future__ import annotations

from typing import List

from repro.harness.system import System
from repro.models.perrequest import MlpEstimator
from repro.policies.ucp import UcpPolicy


class McfqPolicy(UcpPolicy):
    name = "mcfq"

    def __init__(self) -> None:
        super().__init__()
        self._mlp: List[MlpEstimator] = []

    def attach(self, system: System) -> None:
        super().attach(system)
        self._mlp = [MlpEstimator() for _ in range(system.config.num_cores)]
        system.hierarchy.service_listeners.append(self._on_service)

    def _on_service(self, core: int, is_hit: bool, is_start: bool, now: int) -> None:
        if is_hit:
            return
        if is_start:
            self._mlp[core].start(now)
        else:
            self._mlp[core].end(now)

    def _curves(self) -> List[List[float]]:
        """UCP's curves weighted by ``1 / mlp``; the MLP averages restart
        with the next quantum."""
        assert self.system is not None
        now = self.system.engine.now
        curves = []
        for monitor, mlp in zip(self.monitors, self._mlp):
            weight = 1.0 / mlp.parallelism(now)
            mlp.reset(now)
            curves.append([hits * weight for hits in monitor.utility_curve()])
        return curves
