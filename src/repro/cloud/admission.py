"""Admission control: shed load when the fleet cannot be trusted.

New tenants queue FIFO. While fleet confidence is at or above the
policy floor, the controller admits as many queued tenants as the fleet
has free cores. When confidence drops below the floor the fleet is
flying on worst-case bounds — admitting more load would only convert
soft degradation into SLA violations — so admission pauses, the queue
absorbs arrivals up to ``max_queue`` (the fleet passes
:data:`~repro.cloud.spec.MAX_QUEUE`), and anything beyond that is shed
(rejected permanently, and counted: shedding is a robustness outcome,
not an error).
"""

from __future__ import annotations

from typing import List

from repro.cloud.tenants import Tenant


class AdmissionController:
    """FIFO queue with confidence-gated admission and overflow shedding."""

    def __init__(self, max_queue: int, floor: float) -> None:
        self.max_queue = max_queue
        self.floor = floor
        self._queue: List[Tenant] = []
        self.admitted = 0
        self.shed = 0

    @property
    def queue_length(self) -> int:
        """Tenants currently waiting."""
        return len(self._queue)

    @property
    def queued_ids(self) -> List[int]:
        """Waiting tenant ids in queue order (for round records)."""
        return [t.tenant_id for t in self._queue]

    def offer(self, arrivals: List[Tenant]) -> List[Tenant]:
        """Enqueue this round's arrivals; returns the tenants shed.

        Evacuated tenants (already admitted once) should be re-queued
        with :meth:`requeue` instead — they are never shed.
        """
        shed: List[Tenant] = []
        for tenant in arrivals:
            if len(self._queue) >= self.max_queue:
                shed.append(tenant)
                self.shed += 1
            else:
                self._queue.append(tenant)
        return shed

    def requeue(self, tenants: List[Tenant]) -> None:
        """Put evacuated/migrating tenants at the *front* of the queue
        (they already waited their turn); never sheds."""
        self._queue[:0] = tenants

    def admit(self, fleet_confidence: float, free_cores: int) -> List[Tenant]:
        """Admit up to ``free_cores`` tenants, FIFO — unless degraded.

        Below the confidence floor nothing is admitted: the queue rides
        out the degradation (and :meth:`offer` sheds its overflow).
        """
        if fleet_confidence < self.floor or free_cores <= 0:
            return []
        admitted = self._queue[:free_cores]
        del self._queue[: len(admitted)]
        self.admitted += len(admitted)
        return admitted


__all__ = ["AdmissionController"]
