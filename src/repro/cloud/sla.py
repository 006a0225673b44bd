"""SLA tracking: effective slowdowns with a worst-case backstop.

The scheduler promises each tenant a slowdown SLA. The paper's ASM
estimate is the primary signal, but a fleet cannot let SLA decisions
ride on a corrupted counter alone: when a node's estimate confidence
falls below the policy floor (telemetry faults, stragglers), the
*effective* slowdown used for SLA checks and billing falls back to the
Yun-style worst-case bound — pessimistic but sound. Both the decision
basis and the ground-truth ("oracle") violation are recorded, so the
experiments can report how often degraded telemetry changed a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class SlaDecision:
    """One tenant-round SLA evaluation."""

    effective_slowdown: float
    basis: str  # "estimate" | "bound"
    violated: bool
    oracle_violated: bool


def effective_slowdown(
    estimate: float,
    confidence: float,
    bound: float,
    floor: float,
) -> SlaDecision:
    """Pick the slowdown SLA decisions should trust (without the SLA).

    Confident, finite estimates are used as-is (clamped to the bound —
    an estimate above the worst case is itself evidence of corruption);
    anything else falls back to the bound. The returned decision has
    ``violated``/``oracle_violated`` unset (``False``); use
    :meth:`SlaTracker.record` for the full evaluation.
    """
    if confidence >= floor and math.isfinite(estimate) and estimate >= 1.0:
        return SlaDecision(
            effective_slowdown=min(estimate, bound),
            basis="estimate",
            violated=False,
            oracle_violated=False,
        )
    return SlaDecision(
        effective_slowdown=bound, basis="bound",
        violated=False, oracle_violated=False,
    )


@dataclass
class TenantSla:
    """Cumulative SLA account for one tenant."""

    violations: int = 0
    oracle_violations: int = 0
    bound_decisions: int = 0


class SlaTracker:
    """Per-tenant SLA accounting across a fleet run."""

    def __init__(self, sla_slowdown: float, floor: float) -> None:
        if sla_slowdown < 1.0:
            raise ValueError("sla_slowdown must be >= 1")
        self.sla_slowdown = sla_slowdown
        self.floor = floor
        self._tenants: Dict[int, TenantSla] = {}

    def account(self, tenant_id: int) -> TenantSla:
        """The (auto-created) account for ``tenant_id``."""
        account = self._tenants.get(tenant_id)
        if account is None:
            account = TenantSla()
            self._tenants[tenant_id] = account
        return account

    def record(
        self,
        tenant_id: int,
        *,
        estimate: float,
        confidence: float,
        bound: float,
        actual: float,
    ) -> SlaDecision:
        """Evaluate one tenant-round and update the account."""
        picked = effective_slowdown(estimate, confidence, bound, self.floor)
        violated = picked.effective_slowdown > self.sla_slowdown
        oracle = math.isfinite(actual) and actual > self.sla_slowdown
        account = self.account(tenant_id)
        if picked.basis == "bound":
            account.bound_decisions += 1
        if violated:
            account.violations += 1
        if oracle:
            account.oracle_violations += 1
        return SlaDecision(
            effective_slowdown=picked.effective_slowdown,
            basis=picked.basis,
            violated=violated,
            oracle_violated=oracle,
        )

    @property
    def total_violations(self) -> int:
        """Decision-basis violations across every tenant."""
        return sum(a.violations for a in self._tenants.values())

    @property
    def total_oracle_violations(self) -> int:
        """Ground-truth violations across every tenant."""
        return sum(a.oracle_violations for a in self._tenants.values())


__all__ = ["SlaDecision", "SlaTracker", "TenantSla", "effective_slowdown"]
