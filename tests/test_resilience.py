"""Tests for the resilience subsystem: fault isolation, invariant guards,
checkpoint/resume and the quantum watchdog."""

import json

import pytest

from repro.config import scaled_config
from repro.harness.runner import run_workload
from repro.models.asm import AsmModel
from repro.parallel import CellSpec
from repro.resilience import (
    Campaign,
    InvariantChecker,
    InvariantViolation,
    RunFailure,
    config_fingerprint,
    rebuild_mix,
    replay_failure,
    stable_hash,
)
from repro.resilience.campaign import CampaignStore, result_to_json
from repro.resilience.inject import (
    CorruptingTrace,
    CounterCorruptionInjector,
    EngineStallInjector,
    InjectedFault,
    SpinInjector,
    TraceFaultMix,
    exploding_model_factories,
)
from repro.resilience.watchdog import WatchdogStall, WatchdogTimeout
from repro.workloads.mixes import make_mix


@pytest.fixture()
def config():
    return scaled_config().with_quantum(100_000, 5_000)


def _mixes(n=3, seed=5):
    names = [["mcf", "bzip2"], ["ft", "libquantum"], ["gcc", "lbm"]]
    return [make_mix(names[i % 3], seed=seed + i) for i in range(n)]


def _run_one(campaign, mix, config, recipe, *recipe_args, **cell):
    """Run one cell of ``mix`` on ``config`` built by ``recipe``."""
    spec = CellSpec(mix=mix, config=config, recipe=recipe,
                    recipe_args=recipe_args, **cell)
    return campaign.run_cells([spec])[0]


# Module-level cell recipes: a cell's recipe must pickle by reference.

def _boom_recipe():
    def boom(system):
        raise RuntimeError("boom")

    return {"system_hooks": [boom]}


def _corrupted_demand_recipe():
    return {
        "model_factories": {"asm": lambda: AsmModel(sampled_sets=16)},
        "system_hooks": [
            CounterCorruptionInjector(
                50_000, lambda s: _corrupt_demand(s)
            ).attach
        ],
    }


def _stalled_engine_recipe():
    return {"system_hooks": [EngineStallInjector(at_cycle=40_000).attach]}


# ---------------------------------------------------------------------------
# fingerprints / failure records


def test_stable_hash_is_deterministic(config):
    assert stable_hash((1, "a")) == stable_hash((1, "a"))
    assert stable_hash((1, "a")) != stable_hash((1, "b"))
    assert config_fingerprint(config) == config_fingerprint(config)
    assert config_fingerprint(config) != config_fingerprint(
        config.with_llc_size(128 * 1024)
    )


def test_run_failure_roundtrip_and_rebuild(config):
    mix = _mixes(1)[0]
    campaign = Campaign("t", keep_going=True)
    assert _run_one(
        campaign, mix, config, _boom_recipe, quanta=2, variant="v"
    ) is None
    [failure] = campaign.failures
    assert failure.error_type == "RuntimeError"
    assert "boom" in failure.message
    assert "RuntimeError" in failure.traceback
    restored = RunFailure.from_json(json.loads(json.dumps(failure.to_json())))
    assert restored == failure
    rebuilt = rebuild_mix(restored)
    assert rebuilt == mix


def test_replay_failure_reproduces_the_fault(config):
    mix = TraceFaultMix.wrap(_mixes(1)[0], good_records=50)
    campaign = Campaign("t", keep_going=True)
    assert campaign.run_mix(mix, config, quanta=1) is None
    failure = campaign.failures[0]
    # The record rebuilds the *clean* mix; replaying proves the platform
    # is fine and the fault was in the injected trace.
    result = replay_failure(failure, config)
    assert len(result.records) == 1
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        replay_failure(failure, config.with_llc_size(128 * 1024))


# ---------------------------------------------------------------------------
# fault isolation


def test_keep_going_loses_only_the_faulty_mix(config):
    mixes = _mixes(3)
    mixes[1] = TraceFaultMix.wrap(mixes[1], good_records=50)
    campaign = Campaign("iso", keep_going=True)
    results = [campaign.run_mix(m, config, quanta=1) for m in mixes]
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    assert campaign.computed == 2
    assert len(campaign.failures) == 1
    failure = campaign.failures[0]
    assert failure.error_type == "InjectedFault"
    assert failure.mix_name == mixes[1].name
    table = campaign.failure_summary()
    assert mixes[1].name in table and "InjectedFault" in table
    assert "2 computed" in campaign.summary()
    assert "1 FAILED" in campaign.summary()


def test_without_keep_going_the_fault_propagates(config):
    mix = TraceFaultMix.wrap(_mixes(1)[0], good_records=50)
    campaign = Campaign("iso")
    with pytest.raises(InjectedFault):
        campaign.run_mix(mix, config, quanta=1)
    assert len(campaign.failures) == 1  # still recorded


def test_exploding_model_is_captured(config):
    campaign = Campaign("model", keep_going=True)
    result = _run_one(
        campaign, _mixes(1)[0], config, exploding_model_factories, 0,
        quanta=1,
    )
    assert result is None
    assert campaign.failures[0].error_type == "InjectedFault"


def test_corrupt_trace_record_is_rejected_at_fetch(config):
    mix = TraceFaultMix.wrap(_mixes(1)[0], good_records=50, mode="yield")
    with pytest.raises(ValueError, match="corrupt trace record"):
        run_workload(mix, config, quanta=1)


# ---------------------------------------------------------------------------
# checkpoint / resume


def test_resume_skips_completed_mixes_byte_for_byte(config, tmp_path):
    store = str(tmp_path / "store")
    mixes = _mixes(2)
    first = Campaign("ck", store)
    originals = [first.run_mix(m, config, quanta=2) for m in mixes]
    assert first.computed == 2

    second = Campaign("ck", store, resume=True)
    resumed = [second.run_mix(m, config, quanta=2) for m in mixes]
    assert second.computed == 0 and second.resumed == 2
    for original, again in zip(originals, resumed):
        assert json.dumps(result_to_json(original)) == json.dumps(
            result_to_json(again)
        )
        assert again.mix == original.mix
        assert again.records == original.records


def test_resume_recomputes_only_the_failed_mix(config, tmp_path):
    store = str(tmp_path / "store")
    mixes = _mixes(3)
    faulty = list(mixes)
    faulty[1] = TraceFaultMix.wrap(mixes[1], good_records=50)
    first = Campaign("ck", store, keep_going=True)
    for m in faulty:
        first.run_mix(m, config, quanta=1)
    assert first.computed == 2 and len(first.failures) == 1

    # Re-run with the fixed (clean) mix list: only the failed cell computes.
    second = Campaign("ck", store, resume=True)
    results = [second.run_mix(m, config, quanta=1) for m in mixes]
    assert all(r is not None for r in results)
    assert second.resumed == 2 and second.computed == 1


def test_resume_distinguishes_variant_and_quanta(config, tmp_path):
    store = str(tmp_path / "store")
    mix = _mixes(1)[0]
    first = Campaign("ck", store)
    first.run_mix(mix, config, quanta=1, variant="a")
    second = Campaign("ck", store, resume=True)
    second.run_mix(mix, config, quanta=1, variant="b")
    second.run_mix(mix, config, quanta=2, variant="a")
    assert second.resumed == 0 and second.computed == 2


def test_persistent_alone_cache_survives_restart(config, tmp_path):
    store = str(tmp_path / "store")
    mix = _mixes(1)[0]
    first = Campaign("ck", store)
    cache1 = first.alone_cache()
    profile = cache1.get(mix, 0, config, 10_000)
    second = Campaign("ck", store)
    cache2 = second.alone_cache()
    assert len(cache2) == 0
    again = cache2.get(mix, 0, config, 10_000)
    assert again.checkpoint_interval == profile.checkpoint_interval
    assert again.instructions == profile.instructions


def test_store_skips_torn_trailing_line(tmp_path):
    root = str(tmp_path / "store")
    store = CampaignStore(root)
    store.put_run("k1", {"mix": {}, "records": []})
    runs_path = tmp_path / "store" / "runs.jsonl"
    with open(runs_path, "a") as handle:
        handle.write('{"key": "k2", "result": {"trunc')  # torn write
    reloaded = CampaignStore(root)
    assert reloaded.get_run("k1") == {"mix": {}, "records": []}
    assert reloaded.get_run("k2") is None
    assert len(reloaded) == 1


# ---------------------------------------------------------------------------
# invariant guards


def test_invariant_checker_passes_on_healthy_run(config):
    result = run_workload(
        _mixes(1)[0],
        config,
        quanta=2,
        model_factories={"asm": lambda: AsmModel(sampled_sets=16)},
        check_invariants=True,
    )
    assert len(result.records) == 2


def test_invariant_checker_catches_corrupted_cache_counter(config):
    corrupt = CounterCorruptionInjector(
        50_000, lambda system: _bump_hits(system)
    )
    with pytest.raises(InvariantViolation, match="shared_cache"):
        run_workload(
            _mixes(1)[0],
            config,
            quanta=1,
            check_invariants=True,
            system_hooks=[corrupt.attach],
        )


def _bump_hits(system):
    system.hierarchy.llc.hits[0] += 17


def test_invariants_off_by_default(config):
    corrupt = CounterCorruptionInjector(50_000, _bump_hits)
    result = run_workload(
        _mixes(1)[0], config, quanta=1, system_hooks=[corrupt.attach]
    )
    assert len(result.records) == 1  # corruption goes unnoticed


def test_invariant_violation_names_component_and_cycle():
    violation = InvariantViolation("asm", 1234, "broken")
    assert violation.component == "asm"
    assert violation.cycle == 1234
    assert "[asm @ cycle 1234] broken" in str(violation)


def test_campaign_captures_invariant_violation(config):
    mix = _mixes(1)[0]
    campaign = Campaign("inv", keep_going=True, check_invariants=True)
    result = _run_one(
        campaign, mix, config, _corrupted_demand_recipe, quanta=1
    )
    assert result is None
    assert campaign.failures[0].error_type == "InvariantViolation"
    assert "shared_cache" in campaign.failures[0].message


def _corrupt_demand(system):
    # Demand-side counterpart of _bump_hits: the hierarchy claims demand
    # hits the functional cache never saw.
    system.hierarchy.demand_hits[0] += 3


# ---------------------------------------------------------------------------
# watchdog


def test_watchdog_catches_stopped_engine(config):
    stall = EngineStallInjector(at_cycle=40_000)
    with pytest.raises(WatchdogStall, match="stopped mid-quantum"):
        run_workload(
            _mixes(1)[0], config, quanta=1, system_hooks=[stall.attach]
        )


def test_watchdog_failure_carries_diagnosis(config):
    campaign = Campaign("wd", keep_going=True)
    result = _run_one(
        campaign, _mixes(1)[0], config, _stalled_engine_recipe, quanta=1
    )
    assert result is None
    failure = campaign.failures[0]
    assert failure.error_type == "WatchdogStall"
    assert failure.diagnosis["quantum"] == 0
    assert failure.diagnosis["cycle"] == 100_000
    assert len(failure.diagnosis["committed_delta"]) == 2


def test_wall_clock_budget_aborts_live_locked_loop(config):
    spin = SpinInjector(at_cycle=10_000, forever=True)
    with pytest.raises(WatchdogTimeout):
        run_workload(
            _mixes(1)[0],
            config,
            quanta=1,
            wall_clock_budget_s=0.2,
            system_hooks=[spin.attach],
        )


def test_corrupting_trace_modes():
    inner = iter(())
    trace = CorruptingTrace(inner, good_records=0, mode="yield")
    record = next(trace)
    assert record.gap == -1 and record.line_addr == -1
    with pytest.raises(ValueError):
        CorruptingTrace(inner, 0, mode="nope")
    with pytest.raises(InjectedFault):
        next(CorruptingTrace(inner, good_records=0))
