"""Slowdown-fair billing (paper Section 7.3 at fleet scale).

The paper's fair-pricing scheme bills a tenant for the machine time it
*effectively* received: a tenant slowed 2x by co-runners got half a
machine, and pays accordingly. ``charge = base_rate * quanta /
effective_slowdown`` implements that (the fleet bills at
:data:`~repro.cloud.spec.BASE_RATE`); ``flat`` billing (the baseline
the experiments compare against) charges for wall occupancy regardless
of interference, which overcharges exactly the tenants that hogs hurt.

Billing records are persisted per (fleet, round, tenant) through the
keyed checksummed store, so a crash-resumed fleet replays them
idempotently and ``repro campaign verify`` checks every record's
checksum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class BillingRecord:
    """One tenant-round invoice line."""

    round_index: int
    tenant_id: int
    node_id: int
    quanta: int
    estimate: float
    confidence: float
    bound: float
    effective_slowdown: float
    basis: str
    charge: float

    @property
    def key(self) -> str:
        """The tenant-round part of the store key, which the fleet
        prefixes with its name."""
        return billing_key(self.round_index, self.tenant_id)

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


def billing_key(round_index: int, tenant_id: int) -> str:
    """Store key for one tenant-round invoice line."""
    return f"r{round_index:04d}/t{tenant_id:04d}"


def charge_for(
    mode: str, base_rate: float, quanta: int, effective_slowdown: float
) -> float:
    """The invoice amount for one tenant-round.

    ``fair`` divides by the effective slowdown (interference discount);
    ``flat`` bills occupancy as-is.
    """
    if quanta <= 0:
        return 0.0
    if mode == "fair":
        return base_rate * quanta / max(1.0, effective_slowdown)
    return base_rate * quanta


__all__ = ["BillingRecord", "billing_key", "charge_for"]
