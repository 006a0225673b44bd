"""Unit tests for the fleet tier's building blocks (``repro.cloud``).

Each piece is tested in isolation: the deterministic tenant stream, the
Yun-style worst-case slowdown bound, confidence-gated admission control,
ASM-aware vs naive placement with per-node circuit breakers, supervised
migration backoff, SLA decisions with the bound backstop, slowdown-fair
billing, the seeded chaos plane, and the keyed idempotent store the
supervisor persists through. The end-to-end fleet behaviour (replay
determinism, crash/resume) lives in ``test_cloud_fleet.py``.
"""

import math

import pytest

from repro.cloud.admission import AdmissionController
from repro.cloud.billing import BillingRecord, billing_key, charge_for
from repro.cloud.chaos import STRAGGLER_CONFIDENCE_CAP, FleetChaos
from repro.cloud.node import NodeState, node_mix, worst_case_slowdown_bound
from repro.cloud.scheduler import FleetScheduler, node_breaker_key
from repro.cloud.sla import SlaTracker, effective_slowdown
from repro.cloud.spec import MIGRATION_MAX_ATTEMPTS, FleetChaosSpec, FleetSpec
from repro.cloud.tenants import tenant_stream
from repro.config import scaled_config
from repro.durability.store import KeyedLog


# -- tenant stream ------------------------------------------------------

def test_tenant_stream_is_deterministic():
    spec = FleetSpec(num_tenants=8, seed=5)
    assert tenant_stream(spec) == tenant_stream(spec)


def test_tenant_stream_tenant_depends_only_on_seed_and_index():
    # Tenant i must not depend on how many tenants exist after it.
    long = tenant_stream(FleetSpec(num_tenants=8, seed=5))
    short = tenant_stream(FleetSpec(num_tenants=4, seed=5))
    assert long[:4] == short


def test_tenant_stream_arrival_batching_and_demand():
    spec = FleetSpec(num_tenants=6, arrivals_per_round=2, tenant_quanta=3)
    stream = tenant_stream(spec)
    assert [t.arrival_round for t in stream] == [0, 0, 1, 1, 2, 2]
    assert all(t.demand_quanta == 3 for t in stream)
    assert [t.tenant_id for t in stream] == list(range(6))


def test_tenant_stream_hog_fraction_extremes():
    assert all(
        t.is_hog
        for t in tenant_stream(FleetSpec(num_tenants=6, hog_fraction=1.0))
    )
    assert not any(
        t.is_hog
        for t in tenant_stream(FleetSpec(num_tenants=6, hog_fraction=0.0))
    )


# -- worst-case bound ---------------------------------------------------

def test_worst_case_bound_alone_is_one():
    assert worst_case_slowdown_bound(scaled_config(), 0) == 1.0


def test_worst_case_bound_monotonic_in_corunners():
    config = scaled_config()
    bounds = [worst_case_slowdown_bound(config, n) for n in range(9)]
    assert bounds[1] > 1.0
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_worst_case_bound_rejects_negative_corunners():
    with pytest.raises(ValueError):
        worst_case_slowdown_bound(scaled_config(), -1)


# -- SLA decisions ------------------------------------------------------

def test_effective_slowdown_trusts_confident_estimates():
    decision = effective_slowdown(2.0, 1.0, 10.0, floor=0.75)
    assert decision.basis == "estimate"
    assert decision.effective_slowdown == 2.0


def test_effective_slowdown_falls_back_to_bound_when_degraded():
    for estimate, confidence in [
        (2.0, 0.5),            # confidence below the floor
        (math.inf, 1.0),       # non-finite estimate
        (0.5, 1.0),            # sub-1 slowdown is itself corrupt
    ]:
        decision = effective_slowdown(estimate, confidence, 10.0, floor=0.75)
        assert decision.basis == "bound"
        assert decision.effective_slowdown == 10.0


def test_effective_slowdown_clamps_estimate_to_bound():
    # An estimate above the worst case is evidence of corruption.
    decision = effective_slowdown(20.0, 1.0, 10.0, floor=0.75)
    assert decision.basis == "estimate"
    assert decision.effective_slowdown == 10.0


def test_sla_tracker_accounts_violations_and_basis():
    sla = SlaTracker(sla_slowdown=3.0, floor=0.75)
    decision = sla.record(1, estimate=5.0, confidence=1.0, bound=8.0, actual=4.0)
    assert decision.violated and decision.oracle_violated
    degraded = sla.record(1, estimate=2.0, confidence=0.1, bound=8.0, actual=2.0)
    assert degraded.basis == "bound" and degraded.violated
    assert not degraded.oracle_violated
    account = sla.account(1)
    assert account.violations == 2
    assert account.oracle_violations == 1
    assert account.bound_decisions == 1
    assert sla.total_violations == 2
    assert sla.total_oracle_violations == 1


# -- admission control --------------------------------------------------

def _tenants(n, **kwargs):
    return tenant_stream(FleetSpec(num_tenants=n, seed=5, **kwargs))


def test_admission_sheds_beyond_max_queue():
    admission = AdmissionController(max_queue=2, floor=0.75)
    shed = admission.offer(_tenants(4))
    assert [t.tenant_id for t in shed] == [2, 3]
    assert admission.queue_length == 2
    assert admission.shed == 2


def test_admission_is_fifo_and_capacity_limited():
    admission = AdmissionController(max_queue=16, floor=0.75)
    admission.offer(_tenants(4))
    admitted = admission.admit(1.0, free_cores=2)
    assert [t.tenant_id for t in admitted] == [0, 1]
    assert admission.queued_ids == [2, 3]


def test_admission_pauses_below_confidence_floor():
    admission = AdmissionController(max_queue=16, floor=0.75)
    admission.offer(_tenants(2))
    assert admission.admit(0.5, free_cores=4) == []
    assert admission.queue_length == 2


def test_requeue_goes_to_front_and_never_sheds():
    admission = AdmissionController(max_queue=2, floor=0.75)
    stream = _tenants(4)
    admission.offer(stream[:2])
    admission.requeue(stream[2:])  # over max_queue, still accepted
    assert admission.queued_ids == [2, 3, 0, 1]
    assert admission.shed == 0


# -- scheduler ----------------------------------------------------------

def _scheduler(**kwargs):
    return FleetScheduler(FleetSpec(num_nodes=3, cores_per_node=2, **kwargs))


def test_asm_placement_prefers_low_pressure_nodes():
    scheduler = _scheduler()
    scheduler.pressure = {0: 5.0, 1: 1.2, 2: 3.0}
    tenant = _tenants(1)[0]
    assert scheduler.place(tenant, 0, "asm") == 1


def test_naive_placement_is_first_fit_by_node_id():
    scheduler = _scheduler()
    scheduler.pressure = {0: 5.0, 1: 1.2, 2: 3.0}
    stream = _tenants(3)
    assert scheduler.place(stream[0], 0, "naive") == 0
    assert scheduler.place(stream[1], 0, "naive") == 0  # node 0 has room
    assert scheduler.place(stream[2], 0, "naive") == 1


def test_mode_degrades_exactly_below_floor():
    scheduler = _scheduler(placement="asm", confidence_floor=0.75)
    assert scheduler.mode_for(0.75) == "asm"
    assert scheduler.mode_for(0.7499) == "naive"
    assert scheduler.asm_rounds == 1 and scheduler.naive_rounds == 1
    always_naive = _scheduler(placement="naive")
    assert always_naive.mode_for(1.0) == "naive"


def test_repeated_deterministic_failure_trips_node_breaker():
    scheduler = _scheduler()
    scheduler.note_node_round(0, ok=False, min_confidence=0.0)
    assert scheduler.breaker.allows(node_breaker_key(0))
    scheduler.note_node_round(0, ok=False, min_confidence=0.0)
    assert not scheduler.breaker.allows(node_breaker_key(0))
    assert [n.node_id for n in scheduler.candidates(0)] == [1, 2]
    # A healthy round closes the circuit again.
    scheduler.note_node_round(0, ok=True, min_confidence=1.0)
    assert scheduler.breaker.allows(node_breaker_key(0))


def test_chaos_kills_are_transient_and_never_trip():
    scheduler = _scheduler()
    for _ in range(5):
        scheduler.note_node_kill(1)
    assert scheduler.breaker.allows(node_breaker_key(1))


def test_migration_burns_budget_with_cooldown():
    scheduler = _scheduler()
    assert scheduler.consider_migration(3, round_index=0)
    # Cooldown: the very next round is always too soon.
    assert not scheduler.consider_migration(3, round_index=1)
    assert scheduler.migration_denied == 1
    for attempt in range(1, MIGRATION_MAX_ATTEMPTS):
        assert scheduler.consider_migration(3, round_index=100 * attempt)
    # Budget exhausted: denied forever after.
    assert not scheduler.consider_migration(
        3, round_index=100 * MIGRATION_MAX_ATTEMPTS
    )
    assert scheduler.migrations == MIGRATION_MAX_ATTEMPTS


# -- billing ------------------------------------------------------------

def test_fair_billing_discounts_interference():
    assert charge_for("fair", 1.0, 2, 4.0) == pytest.approx(0.5)
    assert charge_for("flat", 1.0, 2, 4.0) == pytest.approx(2.0)
    # Effective slowdowns below 1 never inflate the charge.
    assert charge_for("fair", 1.0, 2, 0.5) == pytest.approx(2.0)
    assert charge_for("fair", 1.0, 0, 4.0) == 0.0


def test_billing_record_key_is_stable():
    assert billing_key(3, 7) == "r0003/t0007"
    record = BillingRecord(
        round_index=3, tenant_id=7, node_id=1, quanta=1, estimate=2.0,
        confidence=1.0, bound=8.0, effective_slowdown=2.0, basis="estimate",
        charge=0.5,
    )
    assert record.key == "r0003/t0007"
    assert record.to_json()["basis"] == "estimate"


# -- chaos plane --------------------------------------------------------

def test_chaos_draws_are_deterministic_and_seeded():
    spec = FleetChaosSpec(
        node_kill_rate=0.3, straggler_rate=0.3, telemetry_rate=0.5, seed=1
    )
    chaos = FleetChaos(spec)
    draws = [chaos.events(r, n) for r in range(10) for n in range(3)]
    again = [chaos.events(r, n) for r in range(10) for n in range(3)]
    assert draws == again
    other = FleetChaos(
        FleetChaosSpec(
            node_kill_rate=0.3, straggler_rate=0.3, telemetry_rate=0.5,
            seed=2,
        )
    )
    assert draws != [other.events(r, n) for r in range(10) for n in range(3)]


def test_killed_nodes_draw_nothing_else():
    spec = FleetChaosSpec(
        node_kill_rate=1.0, straggler_rate=1.0, telemetry_rate=1.0
    )
    events = FleetChaos(spec).events(0, 0)
    assert events.kill and not events.straggler and events.telemetry is None
    assert 0.0 < STRAGGLER_CONFIDENCE_CAP < 1.0


def test_node_state_kill_evacuates_and_restarts():
    node = NodeState(node_id=0, cores=2, tenants=[4, 5])
    assert node.free_cores == 0
    evacuated = node.kill(3, restart_rounds=2)
    assert evacuated == [4, 5]
    assert node.tenants == []
    assert not node.is_up(3) and not node.is_up(4) and node.is_up(5)


def test_node_mix_seed_is_fleet_constant():
    # The alone-run cache keys on the mix seed: it must not vary by round
    # or node, or every round would recompute every alone profile.
    stream = _tenants(2)
    mix_a = node_mix("f", 7, 0, 0, stream)
    mix_b = node_mix("f", 7, 5, 1, stream)
    assert mix_a.seed == mix_b.seed == 7
    assert mix_a.specs == mix_b.specs
    assert mix_a.name != mix_b.name


# -- keyed durable store ------------------------------------------------

def test_keyed_log_is_idempotent_and_last_wins(tmp_path):
    path = str(tmp_path / "fleet.jsonl")
    log = KeyedLog(path)
    assert log.put("r0000", {"mode": "asm"})
    size_after_first = (tmp_path / "fleet.jsonl").stat().st_size
    # Exact replay: skipped, no bytes written.
    assert not log.put("r0000", {"mode": "asm"})
    assert (tmp_path / "fleet.jsonl").stat().st_size == size_after_first
    # Changed payload under the same key: appended, last record wins.
    assert log.put("r0000", {"mode": "naive"})
    assert log.put("r0001", {"mode": "asm"})
    reopened = KeyedLog(path)
    assert reopened.keys() == ["r0000", "r0001"]
    assert reopened.get("r0000") == {"key": "r0000", "mode": "naive"}
    assert len(reopened) == 2 and "r0001" in reopened
    # The reopened view skips replays too (the resume fast path).
    assert not reopened.put("r0001", {"mode": "asm"})
