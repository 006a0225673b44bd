"""Frozen configuration for one fleet run.

Everything a fleet does — tenant arrivals, chaos draws, placement,
migration backoff, billing — derives deterministically from one
:class:`FleetSpec` (plus the :class:`~repro.config.SystemConfig` of the
nodes), so a same-seed replay reproduces the run bit-identically and a
crash-resumed supervisor replays into the same byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analytic.runner import FIDELITY_TIERS
from repro.models.base import POLICY_CONFIDENCE_FLOOR
from repro.telemetry.spec import FAULT_CLASSES

#: Placement policies the scheduler implements.
PLACEMENT_POLICIES: Tuple[str, ...] = ("asm", "naive")

#: Billing modes: slowdown-fair (paper Section 7.3) or flat per-quantum.
BILLING_MODES: Tuple[str, ...] = ("fair", "flat")

#: Queued tenants admission holds while paused; arrivals beyond are shed.
MAX_QUEUE = 16

#: Price of one uncontended quantum (a float, so every charge is one).
BASE_RATE = 1.0

#: First migration backoff in rounds; it doubles with each attempt.
MIGRATION_BACKOFF_ROUNDS = 1.0

#: Rounds a killed node stays down before it restarts.
RESTART_ROUNDS = 1


@dataclass(frozen=True)
class FleetChaosSpec:
    """Seeded fleet-level fault plan: which nodes misbehave, and when.

    All rates are per-(round, node) probabilities drawn via
    :func:`~repro.telemetry.spec.fault_u01`, so the fault schedule is a
    pure function of ``(seed, round, node)`` — independent of placement
    decisions, read order, and process boundaries.
    """

    node_kill_rate: float = 0.0
    straggler_rate: float = 0.0
    telemetry_rate: float = 0.0
    telemetry_class: str = "dropped_read"
    telemetry_fault_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("node_kill_rate", "straggler_rate", "telemetry_rate",
                     "telemetry_fault_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.telemetry_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown telemetry class {self.telemetry_class!r}; "
                f"valid: {', '.join(FAULT_CLASSES)}"
            )


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run: topology, tenant stream, policies, chaos.

    ``recipe`` overrides the per-node cell recipe (a module-level
    callable, pickled by reference into the cell workers; called as
    ``recipe(config, *recipe_args)``) — the hook the determinism tests
    use to inject worker crashes.
    """

    name: str = "fleet"
    num_nodes: int = 4
    cores_per_node: int = 2
    rounds: int = 8
    quanta_per_round: int = 1
    seed: int = 0
    num_tenants: int = 8
    arrivals_per_round: int = 4
    tenant_quanta: int = 2
    sla_slowdown: float = 3.0
    placement: str = "asm"
    confidence_floor: float = POLICY_CONFIDENCE_FLOOR
    hog_fraction: float = 0.0
    billing: str = "fair"
    # Fidelity tier for the node rounds (see docs/fidelity.md).
    # "analytical" runs every node round through the closed-form
    # surrogate (repro.analytic): placement/SLA/billing still read the
    # "asm" estimates, but telemetry chaos has nothing to corrupt.
    fidelity: str = "event"
    migration_max_attempts: int = 3
    chaos: FleetChaosSpec = field(default_factory=FleetChaosSpec)
    recipe: Optional[Callable[..., Dict[str, Any]]] = None
    recipe_args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.quanta_per_round < 1:
            raise ValueError("quanta_per_round must be >= 1")
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if self.arrivals_per_round < 1:
            raise ValueError("arrivals_per_round must be >= 1")
        if self.tenant_quanta < 1:
            raise ValueError("tenant_quanta must be >= 1")
        if self.sla_slowdown < 1.0:
            raise ValueError("sla_slowdown must be >= 1")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"valid: {', '.join(PLACEMENT_POLICIES)}"
            )
        if self.billing not in BILLING_MODES:
            raise ValueError(
                f"unknown billing mode {self.billing!r}; "
                f"valid: {', '.join(BILLING_MODES)}"
            )
        if not 0.0 < self.confidence_floor <= 1.0:
            raise ValueError("confidence_floor must be in (0, 1]")
        if not 0.0 <= self.hog_fraction <= 1.0:
            raise ValueError("hog_fraction must be in [0, 1]")
        if self.fidelity not in FIDELITY_TIERS:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; "
                f"valid: {', '.join(FIDELITY_TIERS)}"
            )
        if self.migration_max_attempts < 1:
            raise ValueError("migration_max_attempts must be >= 1")


__all__ = [
    "BASE_RATE",
    "BILLING_MODES",
    "FleetChaosSpec",
    "FleetSpec",
    "MAX_QUEUE",
    "MIGRATION_BACKOFF_ROUNDS",
    "PLACEMENT_POLICIES",
    "RESTART_ROUNDS",
]
