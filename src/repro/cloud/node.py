"""Node-level building blocks: state, cell recipes, worst-case bound.

A *node* is one multi-core machine of the fleet. Its round of service
is exactly one campaign cell: the tenants placed on it become a
:class:`~repro.workloads.mixes.WorkloadMix` (one tenant per core), and
the event simulator (or the analytic tier) runs the quantum(s)
with an ASM model attached. The fleet scheduler reads the resulting
per-core estimates, confidences, and ground-truth slowdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.cloud.tenants import Tenant
from repro.config import SystemConfig
from repro.models.asm import AsmModel
from repro.workloads.mixes import WorkloadMix


def node_model_factories(config: SystemConfig) -> Dict[str, Any]:
    """Default per-node cell recipe: one ASM per cell.

    Module-level so :class:`~repro.parallel.CellSpec` can pickle it by
    reference into the worker processes.
    """
    sets = config.ats_sampled_sets
    return {"model_factories": {"asm": lambda: AsmModel(sampled_sets=sets)}}


def node_mix(
    fleet_name: str,
    fleet_seed: int,
    round_index: int,
    node_id: int,
    tenants: Sequence[Tenant],
) -> WorkloadMix:
    """The workload mix node ``node_id`` runs this round.

    The mix *seed* is the fleet seed (not a per-round derivation): the
    alone-run cache keys on ``(spec, mix.seed, core, config, cycles)``,
    so keeping the seed constant lets a tenant's alone profile be
    computed once and reused across every round and node where it lands
    on the same core index.
    """
    return WorkloadMix(
        name=f"{fleet_name}-r{round_index:03d}-n{node_id:02d}-"
        + "+".join(t.name for t in tenants),
        specs=tuple(t.spec for t in tenants),
        seed=fleet_seed,
    )


def worst_case_slowdown_bound(config: SystemConfig, corunners: int) -> float:
    """Yun-style worst-case interference slowdown bound for one core.

    In the spirit of the parallelism-aware worst-case memory
    interference delay analysis (PAPERS.md, arXiv:1407.7448): each of a
    core's memory requests can be delayed by at most one older request
    per competing core under FR-FCFS prioritisation. Requests to
    distinct banks overlap — only the shared data bus serialises them —
    so of the ``corunners`` interfering requests, at most
    ``ceil(corunners / banks)`` pay the full row-conflict service time
    (precharge + activate + CAS + burst) and the rest pay only the bus
    transfer. Normalising by the best-case (row-hit) service time gives
    a slowdown bound that holds regardless of how corrupted the
    telemetry is — the hard backstop SLA decisions fall back on when
    estimate confidence degrades.
    """
    if corunners < 0:
        raise ValueError("corunners must be >= 0")
    if corunners == 0:
        return 1.0
    dram = config.dram
    service_min = float(dram.cas_latency + dram.burst_time)
    service_max = float(
        dram.trp + dram.trcd + dram.cas_latency + dram.burst_time
    )
    conflicts = math.ceil(corunners / dram.total_banks)
    delay = (
        conflicts * service_max
        + (corunners - conflicts) * float(dram.burst_time)
    )
    return (service_min + delay) / service_min


@dataclass
class NodeState:
    """Mutable per-node scheduler state across rounds."""

    node_id: int
    cores: int
    tenants: List[int] = field(default_factory=list)
    #: First round in which the node is up again (0 = always was).
    down_until: int = 0
    kills: int = 0

    def is_up(self, round_index: int) -> bool:
        """Whether the node can serve ``round_index``."""
        return round_index >= self.down_until

    @property
    def free_cores(self) -> int:
        """Unoccupied cores (placement capacity this round)."""
        return self.cores - len(self.tenants)

    def kill(self, round_index: int, restart_rounds: int) -> List[int]:
        """Crash the node: evacuate tenants, stay down, count the kill."""
        evacuated = list(self.tenants)
        self.tenants.clear()
        self.down_until = round_index + restart_rounds
        self.kills += 1
        return evacuated


__all__ = [
    "NodeState",
    "node_mix",
    "node_model_factories",
    "worst_case_slowdown_bound",
]
