"""Integration tests: telemetry faults through the models, runner,
policies, campaign and the chaos suite.

The load-bearing properties:

* rate-0 fault injectors are bit-identical to no injector at all;
* every fault class at 1% and 10% leaves every model finite and sane;
* degraded quanta carry confidence < 1 and a reason;
* policies hold their last decision on low-confidence quanta;
* failure records replay with the telemetry spec that produced them.
"""

import dataclasses
import math

import pytest

from repro.config import scaled_config
from repro.experiments import telemetry_faults
from repro.harness.runner import AloneRunCache, run_workload
from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.models.base import POLICY_CONFIDENCE_FLOOR
from repro.policies.asm_cache import AsmCachePolicy
from repro.policies.asm_mem import AsmMemPolicy
from repro.policies.combined import AsmCacheMemPolicy
from repro.policies.qos import AsmQosPolicy
from repro.resilience import Campaign, replay_failure
from repro.resilience.campaign import result_from_json, result_to_json
from repro.resilience.inject import InjectedFault, TraceFaultMix
from repro.telemetry import FAULT_CLASSES, TelemetrySpec
from repro.workloads.mixes import WorkloadMix, make_mix
from repro.workloads.synthetic import AppSpec


@pytest.fixture(scope="module")
def config():
    return scaled_config().with_quantum(100_000, 5_000)


@pytest.fixture(scope="module")
def mix():
    return make_mix(["mcf", "bzip2", "ft", "libquantum"], seed=11)


@pytest.fixture(scope="module")
def alone_cache():
    # Ground-truth alone runs do not depend on the telemetry spec; share
    # them across every run in this module.
    return AloneRunCache()


def run_with(mix, config, cache, telemetry, quanta=2):
    return run_workload(
        mix,
        config,
        model_factories=telemetry_faults.chaos_model_factories(config),
        quanta=quanta,
        alone_cache=cache,
        telemetry=telemetry,
        check_invariants=True,
    )


@pytest.fixture(scope="module")
def baseline(mix, config, alone_cache):
    return run_with(mix, config, alone_cache, telemetry=None)


# ---------------------------------------------------------------------------
# Bit-identity: a rate-0 injector is indistinguishable from no injector.


@pytest.mark.parametrize("fault_class", FAULT_CLASSES)
def test_rate_zero_is_bit_identical_to_no_telemetry(
    fault_class, mix, config, alone_cache, baseline
):
    spec = TelemetrySpec(fault_class=fault_class, rate=0.0)
    faulted = run_with(mix, config, alone_cache, telemetry=spec)
    for base_rec, rec in zip(baseline.records, faulted.records):
        assert rec.estimates == base_rec.estimates
        assert rec.confidence == base_rec.confidence
        assert rec.degraded == base_rec.degraded


# ---------------------------------------------------------------------------
# The acceptance sweep: every class at 1% and 10%, every model survives.


@pytest.mark.parametrize("fault_class", FAULT_CLASSES)
@pytest.mark.parametrize("rate", [0.01, 0.1])
def test_faulted_runs_stay_finite_and_flagged(
    fault_class, rate, mix, config, alone_cache
):
    spec = TelemetrySpec(fault_class=fault_class, rate=rate)
    result = run_with(mix, config, alone_cache, telemetry=spec)
    for record in result.records:
        for model, estimates in record.estimates.items():
            confidence = record.confidence[model]
            degraded = record.degraded[model]
            for core, estimate in enumerate(estimates):
                assert math.isfinite(estimate), (model, fault_class, rate)
                assert 1.0 <= estimate <= 50.0
                assert 0.0 < confidence[core] <= 1.0
                # A flagged quantum always carries a reason and vice versa.
                assert (confidence[core] < 1.0) == (degraded[core] is not None)


# ---------------------------------------------------------------------------
# Metamorphic properties.


def test_single_app_rate_zero_has_full_confidence(config, alone_cache):
    solo = make_mix(["bzip2"], seed=3)
    for fault_class in FAULT_CLASSES:
        spec = TelemetrySpec(fault_class=fault_class, rate=0.0)
        result = run_with(solo, config, alone_cache, telemetry=spec, quanta=1)
        for record in result.records:
            for model, estimates in record.estimates.items():
                # Alone on the machine: no interference to model.
                assert estimates[0] == pytest.approx(1.0, abs=0.25)
                assert record.confidence[model][0] == 1.0
                assert record.degraded[model][0] is None


def test_confidence_degrades_monotonically_with_rate(mix, config, alone_cache):
    means = []
    for rate in (0.0, 0.3, 0.9):
        spec = TelemetrySpec(fault_class="dropped_read", rate=rate)
        result = run_with(mix, config, alone_cache, telemetry=spec)
        values = [
            c
            for record in result.records
            for confidences in record.confidence.values()
            for c in confidences
        ]
        means.append(sum(values) / len(values))
    assert means[0] >= means[1] >= means[2]
    assert means[2] < means[0]  # 90% dropped reads must be noticed


def test_idle_core_does_not_break_the_guards(config, alone_cache):
    # Near-idle application: almost no accesses, so per-quantum counters
    # sit at the degenerate values the guarded divisions must survive.
    idle = AppSpec(
        name="idle",
        apki=0.01,
        reuse_prob=0.9,
        reuse_depth=300,
        footprint_lines=4_000,
        seq_frac=0.3,
    )
    lazy_mix = WorkloadMix(
        name="idle+mcf",
        specs=(idle, make_mix(["mcf"], seed=0).specs[0]),
        seed=13,
    )
    for telemetry in (None, TelemetrySpec(fault_class="dropped_read", rate=0.1)):
        result = run_with(lazy_mix, config, alone_cache, telemetry=telemetry)
        for record in result.records:
            for estimates in record.estimates.values():
                assert all(math.isfinite(e) and e >= 1.0 for e in estimates)


# ---------------------------------------------------------------------------
# Policies hold their last decision on low-confidence quanta.


def _policy_system(config, mix, telemetry):
    system = System(
        dataclasses.replace(config, num_cores=mix.num_cores),
        mix.traces(),
        seed=mix.seed,
        telemetry=telemetry,
    )
    asm = AsmModel(sampled_sets=16)
    asm.attach(system)
    policy = AsmCachePolicy(asm)
    policy.attach(system)
    return system, asm, policy


def test_policy_skips_reallocation_on_low_confidence(config, mix):
    spec = TelemetrySpec(fault_class="dropped_read", rate=0.9)
    system, asm, policy = _policy_system(config, mix, spec)
    for _ in range(3):
        system.run_quantum()
    assert policy.skipped_reallocations > 0
    assert any(
        s.confidence < POLICY_CONFIDENCE_FLOOR for s in asm.last_quantum
    )


def test_policy_reallocates_normally_without_faults(config, mix):
    system, _, policy = _policy_system(config, mix, telemetry=None)
    for _ in range(3):
        system.run_quantum()
    assert policy.skipped_reallocations == 0
    assert policy.last_allocation is not None


@pytest.mark.parametrize(
    "make_policy",
    [AsmMemPolicy, lambda asm: AsmQosPolicy(asm, 0, 2.0), AsmCacheMemPolicy],
    ids=["asm-mem", "asm-qos", "asm-cache-mem"],
)
def test_asm_policy_counts_each_low_confidence_skip(config, mix, make_policy):
    spec = TelemetrySpec(fault_class="dropped_read", rate=0.9)
    system = System(
        dataclasses.replace(config, num_cores=mix.num_cores),
        mix.traces(),
        seed=mix.seed,
        telemetry=spec,
    )
    asm = AsmModel(sampled_sets=16)
    asm.attach(system)
    policy = make_policy(asm)
    policy.attach(system)
    low_quanta = 0
    for _ in range(3):
        system.run_quantum()
        low_quanta += any(
            s.confidence < POLICY_CONFIDENCE_FLOOR for s in asm.last_quantum
        )
    assert low_quanta > 0
    assert policy.skipped_reallocations == low_quanta


# ---------------------------------------------------------------------------
# Campaign integration: keys, checkpoints and replay carry the spec.


def test_run_key_separates_telemetry_variants(config, mix):
    campaign = Campaign("keys")
    spec = TelemetrySpec(fault_class="saturation", rate=0.1)
    base = campaign.run_key(mix, config, 2, "v")
    assert base == campaign.run_key(mix, config, 2, "v", telemetry=None)
    assert base != campaign.run_key(mix, config, 2, "v", telemetry=spec)
    assert campaign.run_key(mix, config, 2, "v", telemetry=spec) == (
        campaign.run_key(mix, config, 2, "v", telemetry=spec)
    )


def test_result_json_roundtrip_keeps_confidence(config, baseline):
    data = result_to_json(baseline)
    rebuilt = result_from_json(data, config)
    for original, restored in zip(baseline.records, rebuilt.records):
        assert restored.estimates == original.estimates
        assert restored.confidence == original.confidence
        assert restored.degraded == original.degraded
    # Pre-telemetry checkpoints (no confidence keys) still load.
    for record in data["records"]:
        del record["confidence"]
        del record["degraded"]
    legacy = result_from_json(data, config)
    assert legacy.records[0].confidence == {}
    assert legacy.records[0].degraded == {}


def test_replay_failure_restores_the_telemetry_spec(config):
    faulty = TraceFaultMix.wrap(make_mix(["mcf", "bzip2"], seed=5), good_records=50)
    spec = TelemetrySpec(fault_class="wraparound", rate=0.05)
    campaign = Campaign("telemetry-replay", keep_going=True)
    assert campaign.run_mix(faulty, config, quanta=1, telemetry=spec) is None
    failure = campaign.failures[0]
    assert failure.telemetry == spec.to_json()
    # The replayed run reconstructs the spec from the failure record; the
    # clean rebuilt mix then proves the fault was the injected trace.
    result = replay_failure(failure, config)
    assert len(result.records) == 1


def test_failure_fingerprint_distinguishes_telemetry(config):
    faulty = TraceFaultMix.wrap(make_mix(["mcf", "bzip2"], seed=5), good_records=50)
    campaign = Campaign("telemetry-fp", keep_going=True)
    campaign.run_mix(faulty, config, quanta=1)
    failure = campaign.failures[0]
    assert failure.telemetry is None
    spec = TelemetrySpec(fault_class="saturation", rate=0.1)
    faulted = dataclasses.replace(failure, telemetry=spec.to_json())
    assert faulted.fingerprint() != failure.fingerprint()


# ---------------------------------------------------------------------------
# The chaos suite driver.


def test_chaos_suite_smoke(config):
    result = telemetry_faults.run(
        num_mixes=1,
        quanta=1,
        config=config,
        fault_classes=("dropped_read",),
        rates=(0.1,),
    )
    assert result.total_failures() == 0
    assert result.total_nonfinite() == 0
    assert result.any_degraded()
    assert len(result.rows) == 5  # one per model
    table = result.format_table()
    assert "dropped_read" in table and "asm" in table
    with pytest.raises(ValueError, match="unknown fault class"):
        telemetry_faults.run(num_mixes=1, fault_classes=("nope",))
