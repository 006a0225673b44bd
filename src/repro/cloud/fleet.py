"""The crash-resumable fleet supervisor: rounds of place/run/settle.

One fleet run is a sequence of *rounds*. Each round:

1. the chaos plane draws per-node faults (kill/straggler/telemetry);
2. killed nodes evacuate their tenants back to the admission queue;
3. arrivals enter admission; the controller admits (or sheds) them;
4. the scheduler places admitted tenants — ASM-aware, or naive
   bin-packing when last round's fleet confidence is below the floor;
5. every occupied up node runs one campaign cell (the event
   simulator, or the analytic tier) through
   :func:`repro.parallel.run_cells` — parallel fan-out is bit-identical
   to serial, and results checkpoint into the campaign store;
6. per-tenant estimates/confidence/ground truth are read back; SLA
   decisions use the estimate or the Yun-style worst-case bound
   (never a corrupted counter alone); violations trigger supervised
   migration; billing records are appended to the keyed store;
7. the round record (placements, mode, both confidences, every chaos
   and scheduling event) is appended to the keyed fleet store, the one
   record of the round that ``repro cloud run|report`` print from.

Every decision derives from the spec, the seed, and simulator outputs,
so a same-seed replay is bit-identical — and because cell results
checkpoint in the campaign store and fleet/billing records live in
idempotent keyed checksummed logs, a supervisor SIGKILLed mid-run
resumes (``resume=True``) by replaying rounds from cached cells into
the exact byte stream an uninterrupted run would have written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cloud.billing import BillingRecord, charge_for
from repro.cloud.chaos import STRAGGLER_CONFIDENCE_CAP, FleetChaos, NodeEvents
from repro.cloud.node import node_mix, node_model_factories, worst_case_slowdown_bound
from repro.cloud.scheduler import FleetScheduler, node_breaker_key
from repro.cloud.sla import SlaTracker
from repro.cloud.spec import BASE_RATE, MAX_QUEUE, RESTART_ROUNDS, FleetSpec
from repro.analytic.runner import resolve_fidelity
from repro.cloud.admission import AdmissionController
from repro.cloud.tenants import Tenant, tenant_stream
from repro.config import SystemConfig
from repro.durability.store import KeyedLog
from repro.harness.metrics import mean
from repro.parallel import CellSpec, run_cells
from repro.resilience.campaign import Campaign

#: Model name the supervisor reads estimates from (the node recipe's).
MODEL_NAME = "asm"


def _mean_finite(values: List[float]) -> float:
    """Mean of the finite entries; ``inf`` when there are none (an
    unusable estimate must fail towards the worst-case bound)."""
    finite = [v for v in values if math.isfinite(v)]
    return mean(finite) if finite else math.inf


def _mean_actual(values: List[float]) -> float:
    """Mean ground-truth slowdown; ``nan`` when no quantum made
    progress (oracle violations cannot be judged)."""
    finite = [v for v in values if not math.isnan(v)]
    return mean(finite) if finite else math.nan


@dataclass
class FleetResult:
    """Everything one fleet run produced (and its durable digest)."""

    spec: FleetSpec
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    billing: List[BillingRecord] = field(default_factory=list)
    completed: List[int] = field(default_factory=list)
    shed: List[int] = field(default_factory=list)
    unserved: List[int] = field(default_factory=list)
    migrations: int = 0
    migration_denied: int = 0
    node_kills: int = 0
    node_cell_failures: int = 0
    straggler_rounds: int = 0
    degraded_node_rounds: int = 0
    asm_rounds: int = 0
    naive_rounds: int = 0
    sla_violations: int = 0
    oracle_violations: int = 0
    bound_decisions: int = 0

    @property
    def total_charged(self) -> float:
        """Sum of every invoice line."""
        return sum(r.charge for r in self.billing)

    def digest(self) -> Dict[str, Any]:
        """Deterministic run fingerprint: every decision and invoice.

        Two runs with equal digests placed, migrated, degraded, and
        billed identically — the object the determinism drills compare.
        """
        return {
            "fleet": self.spec.name,
            "seed": self.spec.seed,
            "rounds": self.rounds,
            "billing": [r.to_json() for r in self.billing],
            "completed": self.completed,
            "shed": self.shed,
            "unserved": self.unserved,
            "counters": {
                "migrations": self.migrations,
                "migration_denied": self.migration_denied,
                "node_kills": self.node_kills,
                "node_cell_failures": self.node_cell_failures,
                "straggler_rounds": self.straggler_rounds,
                "degraded_node_rounds": self.degraded_node_rounds,
                "asm_rounds": self.asm_rounds,
                "naive_rounds": self.naive_rounds,
                "sla_violations": self.sla_violations,
                "oracle_violations": self.oracle_violations,
                "bound_decisions": self.bound_decisions,
            },
        }

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        spec = self.spec
        lines = [
            f"fleet '{spec.name}': {spec.num_nodes} nodes x "
            f"{spec.cores_per_node} cores, {len(self.rounds)} round(s), "
            f"placement={spec.placement}",
            f"  tenants: {len(self.completed)} completed, "
            f"{len(self.shed)} shed, {len(self.unserved)} unserved "
            f"of {spec.num_tenants}",
            f"  placement rounds: {self.asm_rounds} asm, "
            f"{self.naive_rounds} naive"
            + (
                " (degraded)"
                if spec.placement == "asm" and self.naive_rounds
                else ""
            ),
            f"  chaos: {self.node_kills} node kill(s), "
            f"{self.straggler_rounds} straggler round(s), "
            f"{self.degraded_node_rounds} telemetry-degraded round(s), "
            f"{self.node_cell_failures} cell failure(s)",
            f"  SLA: {self.sla_violations} violation(s) "
            f"({self.oracle_violations} oracle), {self.migrations} "
            f"migration(s), {self.bound_decisions} bound-basis decision(s)",
            f"  billed: {self.total_charged:.3f} "
            f"({spec.billing} mode)",
        ]
        return "\n".join(lines)


class FleetSupervisor:
    """Runs one :class:`FleetSpec` under a campaign's durability."""

    def __init__(
        self,
        spec: FleetSpec,
        config: SystemConfig,
        campaign: Campaign,
        *,
        workers: int = 1,
    ) -> None:
        self.spec = spec
        # The declared fidelity tier sets the engine: "analytical" node
        # rounds dispatch through repro.analytic instead of the simulator,
        # and the store fingerprints the resolved engine.
        self.config = resolve_fidelity(config, spec.fidelity)
        self.campaign = campaign
        # Node failures must degrade the round, not abort the fleet.
        self.campaign.keep_going = True
        self.workers = workers
        self._fleet_log: Optional[KeyedLog] = None
        self._billing_log: Optional[KeyedLog] = None
        if campaign.store is not None:
            root = campaign.store.root
            self._fleet_log = KeyedLog(os.path.join(root, "fleet.jsonl"))
            self._billing_log = KeyedLog(os.path.join(root, "billing.jsonl"))

    # ------------------------------------------------------------------
    def _cell_for(
        self,
        round_index: int,
        node_id: int,
        tenants: List[Tenant],
        events: NodeEvents,
    ) -> CellSpec:
        spec = self.spec
        return CellSpec(
            mix=node_mix(spec.name, spec.seed, round_index, node_id, tenants),
            config=self.config,
            quanta=spec.quanta_per_round,
            variant=f"{spec.name}:r{round_index:03d}:n{node_id:02d}",
            recipe=spec.recipe or node_model_factories,
            recipe_args=(self.config,) + spec.recipe_args,
            telemetry=events.telemetry,
        )

    def _tenant_outcome(
        self, records: List[Any], core: int
    ) -> Tuple[float, float, float]:
        """(estimate, confidence, actual) for one core of a cell."""
        estimates: List[float] = []
        confidences: List[float] = []
        actuals: List[float] = []
        for record in records:
            model_estimates = record.estimates.get(MODEL_NAME)
            if model_estimates is not None:
                estimates.append(model_estimates[core])
            model_confidence = record.confidence.get(MODEL_NAME)
            if model_confidence is not None:
                confidences.append(model_confidence[core])
            actuals.append(record.actual_slowdowns[core])
        estimate = _mean_finite(estimates)
        confidence = min(confidences) if confidences else 1.0
        return estimate, confidence, _mean_actual(actuals)

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        """Serve the tenant stream; returns the full run account."""
        spec = self.spec
        result = FleetResult(spec=spec)
        stream = tenant_stream(spec)
        tenant_by_id = {t.tenant_id: t for t in stream}
        arrivals: Dict[int, List[Tenant]] = {}
        for tenant in stream:
            arrivals.setdefault(tenant.arrival_round, []).append(tenant)
        scheduler = FleetScheduler(spec)
        admission = AdmissionController(MAX_QUEUE, spec.confidence_floor)
        sla = SlaTracker(spec.sla_slowdown, spec.confidence_floor)
        chaos = FleetChaos(spec.chaos)
        served: Dict[int, int] = {t.tenant_id: 0 for t in stream}
        placement: Dict[int, int] = {}
        done: Dict[int, bool] = {}
        fleet_confidence = 1.0

        for round_index in range(spec.rounds):
            events = {
                node.node_id: chaos.events(round_index, node.node_id)
                for node in scheduler.nodes
            }
            # 1. Chaos kills: evacuate, requeue at the front.
            kills: List[int] = []
            evacuated: List[Tenant] = []
            for node in scheduler.nodes:
                if node.is_up(round_index) and events[node.node_id].kill:
                    kills.append(node.node_id)
                    for tenant_id in node.kill(round_index, RESTART_ROUNDS):
                        placement.pop(tenant_id, None)
                        evacuated.append(tenant_by_id[tenant_id])
                    scheduler.note_node_kill(node.node_id)
            admission.requeue(evacuated)
            result.node_kills += len(kills)

            # 2. Arrivals and admission.
            shed = admission.offer(arrivals.get(round_index, []))
            for tenant in shed:
                result.shed.append(tenant.tenant_id)
                done[tenant.tenant_id] = True
            confidence_in = fleet_confidence
            mode = scheduler.mode_for(confidence_in)
            free = sum(n.free_cores for n in scheduler.candidates(round_index))
            admitted = admission.admit(confidence_in, free)
            admitted_ids = [t.tenant_id for t in admitted]
            deferred: List[Tenant] = []
            for tenant in admitted:
                node_id = scheduler.place(tenant, round_index, mode)
                if node_id is None:
                    deferred.append(tenant)
                else:
                    placement[tenant.tenant_id] = node_id
            admission.requeue(deferred)

            # 3. Run every occupied up node as one campaign cell.
            active = [
                node
                for node in scheduler.nodes
                if node.is_up(round_index) and node.tenants
            ]
            cells = [
                self._cell_for(
                    round_index,
                    node.node_id,
                    [tenant_by_id[tid] for tid in node.tenants],
                    events[node.node_id],
                )
                for node in active
            ]
            cell_results = run_cells(self.campaign, cells, workers=self.workers)

            # 4. Settle: SLA, migration, billing, node health.
            stragglers: List[int] = []
            degraded_nodes: List[int] = []
            failed_nodes: List[int] = []
            violations: List[int] = []
            migrated: List[Tenant] = []
            confidences: List[float] = []
            for node, cell_result in zip(active, cell_results):
                node_id = node.node_id
                if events[node_id].telemetry is not None:
                    degraded_nodes.append(node_id)
                    result.degraded_node_rounds += 1
                if cell_result is None:
                    failed_nodes.append(node_id)
                    result.node_cell_failures += 1
                    scheduler.note_node_round(
                        node_id, ok=False, min_confidence=0.0
                    )
                    if not scheduler.breaker.allows(
                        node_breaker_key(node_id)
                    ):
                        # The node's circuit is open (its cell fails
                        # deterministically): marooning tenants on it
                        # would starve them — evacuate like a kill.
                        for tenant_id in list(node.tenants):
                            scheduler.release(tenant_id, node_id)
                            placement.pop(tenant_id, None)
                            admission.requeue([tenant_by_id[tenant_id]])
                    continue
                straggler = events[node_id].straggler
                if straggler:
                    stragglers.append(node_id)
                    result.straggler_rounds += 1
                bound = worst_case_slowdown_bound(
                    self.config, len(node.tenants) - 1
                )
                node_confidence = 1.0
                node_pressure: List[float] = []
                for core, tenant_id in enumerate(list(node.tenants)):
                    estimate, confidence, actual = self._tenant_outcome(
                        cell_result.records, core
                    )
                    if straggler:
                        confidence = min(confidence, STRAGGLER_CONFIDENCE_CAP)
                    node_confidence = min(node_confidence, confidence)
                    decision = sla.record(
                        tenant_id,
                        estimate=estimate,
                        confidence=confidence,
                        bound=bound,
                        actual=actual,
                        quanta=spec.quanta_per_round,
                    )
                    served[tenant_id] += spec.quanta_per_round
                    node_pressure.append(decision.effective_slowdown)
                    record = BillingRecord(
                        round_index=round_index,
                        tenant_id=tenant_id,
                        node_id=node_id,
                        quanta=spec.quanta_per_round,
                        estimate=(
                            estimate if math.isfinite(estimate) else -1.0
                        ),
                        confidence=confidence,
                        bound=bound,
                        effective_slowdown=decision.effective_slowdown,
                        basis=decision.basis,
                        charge=charge_for(
                            spec.billing,
                            BASE_RATE,
                            spec.quanta_per_round,
                            decision.effective_slowdown,
                        ),
                    )
                    result.billing.append(record)
                    if self._billing_log is not None:
                        self._billing_log.put(
                            f"{spec.name}/{record.key}", record.to_json()
                        )
                    if decision.violated:
                        violations.append(tenant_id)
                        still_needed = served[tenant_id] < tenant_by_id[
                            tenant_id
                        ].demand_quanta
                        if still_needed and scheduler.consider_migration(
                            tenant_id, round_index
                        ):
                            migrated.append(tenant_by_id[tenant_id])
                scheduler.pressure[node_id] = (
                    mean(node_pressure) if node_pressure else 1.0
                )
                scheduler.note_node_round(
                    node_id, ok=True, min_confidence=node_confidence
                )
                confidences.append(node_confidence)

            # 5. Departures, then migrations back to the queue front.
            completed_now: List[int] = []
            for node in scheduler.nodes:
                for tenant_id in list(node.tenants):
                    if served[tenant_id] >= tenant_by_id[
                        tenant_id
                    ].demand_quanta:
                        scheduler.release(tenant_id, node.node_id)
                        placement.pop(tenant_id, None)
                        done[tenant_id] = True
                        completed_now.append(tenant_id)
                        result.completed.append(tenant_id)
            still_migrating = [
                t for t in migrated if not done.get(t.tenant_id)
            ]
            for tenant in still_migrating:
                node_id = placement.pop(tenant.tenant_id, None)
                if node_id is not None:
                    scheduler.release(tenant.tenant_id, node_id)
            admission.requeue(still_migrating)

            if confidences:
                fleet_confidence = mean(confidences)
            elif not active:
                # An idle fleet has no telemetry to distrust; without
                # this reset a fully-evacuated degraded fleet would
                # never re-open admission (confidence only updates when
                # nodes run).
                fleet_confidence = 1.0

            # 6. Durable round record.
            round_record: Dict[str, Any] = {
                "round": round_index,
                "mode": mode,
                "confidence_in": confidence_in,
                "confidence_out": fleet_confidence,
                "placements": sorted(
                    [tid, nid] for tid, nid in placement.items()
                ),
                "kills": kills,
                "stragglers": stragglers,
                "degraded_nodes": degraded_nodes,
                "failed_nodes": failed_nodes,
                "admitted": admitted_ids,
                "shed": [t.tenant_id for t in shed],
                "violations": violations,
                "migrated": [t.tenant_id for t in still_migrating],
                "completed": completed_now,
                "queue": admission.queued_ids,
            }
            result.rounds.append(round_record)
            if self._fleet_log is not None:
                self._fleet_log.put(
                    f"{spec.name}/r{round_index:04d}", round_record
                )
            if all(
                done.get(t.tenant_id) for t in stream
            ) and admission.queue_length == 0:
                break

        result.migrations = scheduler.migrations
        result.migration_denied = scheduler.migration_denied
        result.asm_rounds = scheduler.asm_rounds
        result.naive_rounds = scheduler.naive_rounds
        result.sla_violations = sla.total_violations
        result.oracle_violations = sla.total_oracle_violations
        result.bound_decisions = sum(
            sla.account(t.tenant_id).bound_decisions for t in stream
        )
        result.unserved = sorted(
            t.tenant_id for t in stream if not done.get(t.tenant_id)
        )
        return result


__all__ = ["FleetResult", "FleetSupervisor", "MODEL_NAME"]
