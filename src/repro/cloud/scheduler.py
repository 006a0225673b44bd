"""Slowdown-aware placement, migration backoff, per-node breakers.

Placement runs in one of two modes every round:

* **asm** — interference-aware: place each tenant on the candidate node
  with the lowest *pressure* (the mean effective slowdown its tenants
  saw last round), breaking ties towards emptier and lower-numbered
  nodes. This is the paper's Section 7 story — ASM estimates steering
  co-location.
* **naive** — first-fit bin-packing by node id, blind to interference.
  This is both the experimental baseline and the graceful-degradation
  target: when fleet estimate confidence falls below the policy floor,
  ASM numbers are noise and the scheduler *deliberately* falls back to
  naive placement (counted, surfaced in metrics) rather than chase
  corrupted estimates.

SLA violations trigger migration, but migration is supervised exactly
like cell retries: a per-tenant attempt budget and deterministic
exponential backoff (:class:`~repro.durability.retry.RetryPolicy`, with
the delay read in *rounds*), so a tenant whose SLA cannot be met
anywhere does not thrash the fleet. A per-node
:class:`~repro.durability.retry.CircuitBreaker` stops placements onto
nodes whose cells repeatedly fail or whose telemetry stays degraded —
transient faults (chaos kills surface as ``WorkerCrash``) never trip
it, matching the campaign supervisor's retry discipline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.cloud.node import NodeState
from repro.cloud.spec import (
    MIGRATION_BACKOFF_ROUNDS,
    MIGRATION_MAX_ATTEMPTS,
    FleetSpec,
)
from repro.cloud.tenants import Tenant
from repro.durability.retry import CircuitBreaker, RetryPolicy


def node_breaker_key(node_id: int) -> str:
    """The circuit-breaker fingerprint for one node."""
    return f"node-{node_id:02d}"


class FleetScheduler:
    """Mutable placement state for one fleet run."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.nodes = [
            NodeState(node_id=i, cores=spec.cores_per_node)
            for i in range(spec.num_nodes)
        ]
        self.breaker = CircuitBreaker()
        self.migration_policy = RetryPolicy(
            max_attempts=MIGRATION_MAX_ATTEMPTS + 1,
            backoff_s=MIGRATION_BACKOFF_ROUNDS,
            seed=spec.seed,
        )
        #: Mean effective slowdown each node's tenants saw last round.
        self.pressure: Dict[int, float] = {}
        self._migration_attempts: Dict[int, int] = {}
        self._cooldown_until: Dict[int, int] = {}
        self.migrations = 0
        self.migration_denied = 0
        self.asm_rounds = 0
        self.naive_rounds = 0

    # -- mode ----------------------------------------------------------
    def mode_for(self, fleet_confidence: float) -> str:
        """This round's placement mode, counted.

        A ``naive``-policy fleet is always naive; an ``asm`` fleet
        degrades to naive exactly when ``fleet_confidence`` (last
        round's measurement) is below the spec's confidence floor.
        """
        if (
            self.spec.placement == "asm"
            and fleet_confidence >= self.spec.confidence_floor
        ):
            self.asm_rounds += 1
            return "asm"
        self.naive_rounds += 1
        return "naive"

    # -- placement -----------------------------------------------------
    def candidates(self, round_index: int) -> List[NodeState]:
        """Nodes placements may target this round, in id order."""
        return [
            node
            for node in self.nodes
            if node.is_up(round_index)
            and node.free_cores > 0
            and self.breaker.allows(node_breaker_key(node.node_id))
        ]

    def place(
        self, tenant: Tenant, round_index: int, mode: str
    ) -> Optional[int]:
        """Assign ``tenant`` to a node (mutating it); ``None`` if full."""
        candidates = self.candidates(round_index)
        if not candidates:
            return None
        if mode == "asm":
            chosen = min(
                candidates,
                key=lambda n: (
                    self.pressure.get(n.node_id, 1.0),
                    len(n.tenants),
                    n.node_id,
                ),
            )
        else:
            chosen = candidates[0]  # first fit: lowest node id with room
        chosen.tenants.append(tenant.tenant_id)
        return chosen.node_id

    def release(self, tenant_id: int, node_id: int) -> None:
        """Take ``tenant_id`` off ``node_id`` (departure or migration)."""
        self.nodes[node_id].tenants.remove(tenant_id)

    # -- node health ---------------------------------------------------
    def note_node_round(
        self,
        node_id: int,
        *,
        ok: bool,
        min_confidence: float,
    ) -> None:
        """Feed one node-round outcome into the per-node breaker."""
        key = node_breaker_key(node_id)
        if not ok:
            self.breaker.record_failure(
                key, "NodeCellFailure", f"node {node_id} cell failed"
            )
        elif min_confidence < self.spec.confidence_floor:
            self.breaker.record_failure(
                key,
                "TelemetryDegraded",
                f"node {node_id} confidence below floor",
            )
        else:
            self.breaker.record_success(key)

    def note_node_kill(self, node_id: int) -> None:
        """A chaos kill: transient by definition (never trips)."""
        self.breaker.record_failure(
            node_breaker_key(node_id), "WorkerCrash", "chaos node kill"
        )

    # -- migration -----------------------------------------------------
    def consider_migration(self, tenant_id: int, round_index: int) -> bool:
        """Whether an SLA violation may migrate ``tenant_id`` now.

        Approval burns one migration attempt and starts a deterministic
        exponential-backoff cooldown (delay measured in rounds).
        """
        attempts = self._migration_attempts.get(tenant_id, 0)
        if attempts >= MIGRATION_MAX_ATTEMPTS:
            self.migration_denied += 1
            return False
        if round_index < self._cooldown_until.get(tenant_id, 0):
            self.migration_denied += 1
            return False
        attempts += 1
        self._migration_attempts[tenant_id] = attempts
        delay_rounds = max(
            1,
            math.ceil(
                self.migration_policy.delay_s(
                    attempts, f"tenant-{tenant_id:03d}"
                )
            ),
        )
        self._cooldown_until[tenant_id] = round_index + 1 + delay_rounds
        self.migrations += 1
        return True


__all__ = ["FleetScheduler", "node_breaker_key"]
