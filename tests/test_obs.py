"""Tests for the observability layer (repro.obs).

The load-bearing guarantee is bit-identity: attaching a trace bus and a
metrics registry must not change a single bit of the simulated results.
The rest covers the sinks, the metrics instruments and their conservation
law, the trace inspector against the model's own statistics, the CLI
verbs, and the campaign profile mode.
"""

import json

import pytest

from repro.config import scaled_config
from repro.harness.runner import run_workload
from repro.models.asm import AsmModel
from repro.obs import (
    ALL_CATEGORIES,
    CACHE,
    DEFAULT_CATEGORIES,
    EPOCH,
    MODEL,
    POLICY,
    QUANTUM,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    mask_for,
    names_for,
    read_jsonl,
)
from repro.obs.inspect import render_summary, summarize_events
from repro.policies.asm_cache import AsmCachePolicy
from repro.resilience.campaign import Campaign, result_to_json
from repro.workloads.mixes import make_mix

CONFIG = scaled_config(2).with_quantum(50_000, 5_000)


def _mix(seed=3):
    return make_mix(["mcf", "bzip2"], seed=seed)


def _run(obs=None, run_metrics=None, quanta=2, policies=True):
    factories = {
        "asm": lambda: AsmModel(sampled_sets=CONFIG.ats_sampled_sets)
    }
    policy_factories = (
        [lambda models: AsmCachePolicy(models["asm"])] if policies else None
    )
    return run_workload(
        _mix(),
        CONFIG,
        model_factories=factories,
        policy_factories=policy_factories,
        quanta=quanta,
        obs=obs,
        run_metrics=run_metrics,
    )


def _fingerprint(result):
    return json.dumps(result_to_json(result), sort_keys=True)


# ----------------------------------------------------------------------
# Bit-identity: observability is passive.

def test_disabled_and_enabled_bus_are_bit_identical():
    baseline = _fingerprint(_run())
    masked = TraceBus([RingBufferSink()], categories=0)
    assert _fingerprint(_run(obs=masked)) == baseline
    full = TraceBus([RingBufferSink()], categories=ALL_CATEGORIES)
    metrics = MetricsRegistry()
    assert _fingerprint(_run(obs=full, run_metrics=metrics)) == baseline
    # The instrumented run actually observed something.
    assert full.sinks[0].total > 0
    assert len(metrics.snapshots) == 2


def test_masked_bus_receives_no_events():
    ring = RingBufferSink()
    _run(obs=TraceBus([ring], categories=0))
    assert ring.total == 0


def test_category_mask_filters_events():
    ring = RingBufferSink()
    _run(obs=TraceBus([ring], categories=QUANTUM | POLICY))
    cats = {e.category for e in ring.events()}
    assert cats <= {QUANTUM, POLICY}
    assert QUANTUM in cats


def test_cache_category_traces_accesses():
    ring = RingBufferSink(capacity=200_000)
    _run(obs=TraceBus([ring], categories=CACHE), quanta=1)
    accesses = [e for e in ring.events() if e.category == CACHE]
    assert accesses, "CACHE category should emit per-access events"
    assert {e.kind for e in accesses} == {"access"}
    assert all(isinstance(e.data["hit"], bool) for e in accesses)


# ----------------------------------------------------------------------
# Category masks.

def test_mask_for_round_trip():
    assert mask_for(["quantum", "model"]) == QUANTUM | MODEL
    assert mask_for(["all"]) == ALL_CATEGORIES
    assert mask_for(["default"]) == DEFAULT_CATEGORIES
    assert DEFAULT_CATEGORIES == ALL_CATEGORIES & ~CACHE
    assert names_for(QUANTUM | EPOCH) == ["quantum", "epoch"]
    with pytest.raises(ValueError, match="unknown trace category"):
        mask_for(["nope"])


# ----------------------------------------------------------------------
# Sinks.

def test_ring_buffer_bounds():
    ring = RingBufferSink(capacity=16)
    for i in range(100):
        ring.write(TraceEvent(cycle=i, category=QUANTUM, kind="quantum"))
    assert len(ring) == 16
    assert ring.total == 100
    assert ring.dropped == 84
    assert [e.cycle for e in ring.events()] == list(range(84, 100))
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_jsonl_sink_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    events = [
        TraceEvent(1, QUANTUM, "quantum", {"index": 0, "shared_ipc": [0.5]}),
        TraceEvent(2, MODEL, "estimates",
                   {"model": "asm", "stats": [{"car_alone": 0.1}]}),
    ]
    sink = JsonlSink(path)
    for event in events:
        sink.write(event)
    sink.close()
    assert read_jsonl(path) == events
    with pytest.raises(ValueError, match="closed"):
        sink.write(events[0])
    sink.close()  # idempotent

    # A torn trailing line (interrupted run) is skipped, not fatal.
    with open(path, "a") as handle:
        handle.write('{"cycle": 3, "cat')
    assert read_jsonl(path) == events


def test_null_sink_counts():
    null = NullSink()
    bus = TraceBus([null])
    bus.emit(5, QUANTUM, "quantum", index=0)
    bus.emit(5, CACHE, "access", core=0, hit=True)
    assert null.count == 2


def test_bus_emit_rechecks_mask():
    ring = RingBufferSink()
    bus = TraceBus([ring], categories=QUANTUM)
    bus.emit(1, CACHE, "access", core=0, hit=True)  # masked: no-op
    bus.emit(1, QUANTUM, "quantum", index=0)
    assert ring.total == 1


# ----------------------------------------------------------------------
# Metrics.

def test_metrics_snapshot_conservation():
    metrics = MetricsRegistry()
    result = _run(run_metrics=metrics, quanta=3)
    assert len(metrics.snapshots) == len(result.records) == 3
    prev_events = 0
    for snap in metrics.snapshots:
        for core in range(2):
            hits = snap[f"core{core}.demand_hits"]
            misses = snap[f"core{core}.demand_misses"]
            assert hits + misses == snap[f"core{core}.demand_accesses"]
        assert snap["engine.events"] >= prev_events
        prev_events = snap["engine.events"]
        hist = snap["queueing_delay"]
        assert sum(hist["counts"]) == hist["count"]
    # CAR gauges from the model ride along.
    assert "asm.core0.car_alone" in metrics.snapshots[-1]
    assert metrics.snapshots[-1]["asm.core0.car_shared"] > 0


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    registry.gauge("g").set(1.5)
    hist = registry.histogram("h", edges=(10, 20))
    for value in (5, 15, 100):
        hist.observe(value)
    assert hist.counts == [1, 1, 1]
    assert hist.count == 3 and hist.mean == 40.0
    snap = registry.snapshot()
    assert snap["c"] == 3 and snap["g"] == 1.5
    assert snap["h"]["counts"] == [1, 1, 1]


def test_metrics_registry_name_collisions():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="already used"):
        registry.gauge("x")
    registry.histogram("h", edges=(1, 2))
    with pytest.raises(ValueError, match="already exists"):
        registry.histogram("h", edges=(3, 4))
    with pytest.raises(ValueError, match="ascending"):
        registry.histogram("bad", edges=(5, 1))


# ----------------------------------------------------------------------
# Inspector: the summary must agree with the model's own statistics.

def test_summarize_matches_asm_quantum_stats():
    model = AsmModel(sampled_sets=CONFIG.ats_sampled_sets)
    policy = AsmCachePolicy(model)
    captured = []

    def capture_hook(system):
        # Appended after the model/policy listeners, so it sees each
        # quantum's final last_quantum statistics.
        system.quantum_listeners.append(
            lambda: captured.append(
                [(s.car_alone, s.car_shared) for s in model.last_quantum]
            )
        )

    ring = RingBufferSink(capacity=65536)
    bus = TraceBus([ring], categories=DEFAULT_CATEGORIES)
    run_workload(
        _mix(),
        CONFIG,
        model_factories={"asm": lambda: model},
        policy_factories=[lambda models: policy],
        quanta=2,
        system_hooks=[capture_hook],
        obs=bus,
    )
    summaries = summarize_events(ring.events())
    assert [s.index for s in summaries] == [0, 1]
    for summary, expected in zip(summaries, captured):
        stats = summary.models["asm"]["stats"]
        for core, (car_alone, car_shared) in enumerate(expected):
            assert stats[core]["car_alone"] == car_alone
            assert stats[core]["car_shared"] == car_shared
        # Epoch ownership fractions cover every epoch exactly once.
        assert summary.total_epochs == CONFIG.quantum_cycles // CONFIG.epoch_cycles
        assert sum(
            summary.epoch_fraction(c) for c in summary.epoch_counts
        ) == pytest.approx(1.0)
    # Policy decisions recorded in the trace match the policy object.
    reallocations = [e for s in summaries for e in s.reallocations()]
    skips = [e for s in summaries for e in s.skips()]
    assert len(skips) == policy.skipped_reallocations
    if policy.last_allocation is not None:
        assert reallocations[-1]["allocation"] == policy.last_allocation
    text = render_summary(summaries)
    assert "quantum 0 @" in text and "CAR_alone" in text


def test_summarize_empty_trace():
    assert summarize_events([]) == []
    assert "no quantum boundaries" in render_summary([])


# ----------------------------------------------------------------------
# CLI verbs.

def test_trace_summarize_cli(capsys):
    from repro.obs.cli import trace_main

    rc = trace_main([
        "summarize", "--quanta", "1",
        "--quantum-cycles", "50000", "--epoch-cycles", "5000",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "quantum 0 @" in out
    assert "CAR_alone" in out and "CAR_shared" in out


def test_trace_show_cli_with_jsonl(tmp_path, capsys):
    from repro.obs.cli import trace_main

    path = str(tmp_path / "t.jsonl")
    rc = trace_main([
        "show", "--quanta", "1", "--limit", "5",
        "--quantum-cycles", "50000", "--epoch-cycles", "5000",
        "--out", path,
    ])
    assert rc == 0
    assert "quantum" in capsys.readouterr().out
    events = read_jsonl(path)
    assert any(e.category == QUANTUM for e in events)
    rc = trace_main(["show", "--input", path, "--limit", "0"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == len(events)


def test_profile_cli(capsys):
    from repro.obs.cli import profile_main

    rc = profile_main([
        "--quanta", "1",
        "--quantum-cycles", "50000", "--epoch-cycles", "5000",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "engine.drain" in out
    assert "hierarchy.access" in out
    assert "events/s" in out


def test_profile_cli_partitions_the_run(capsys):
    from repro.obs.cli import profile_main

    rc = profile_main([
        "--quanta", "1",
        "--quantum-cycles", "50000", "--epoch-cycles", "5000",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    header = next(i for i, line in enumerate(lines) if line.startswith("stage"))
    rows = {}
    for line in lines[header + 1:]:
        if line.startswith("engine events:"):
            break
        name, _calls, _seconds, share = line.rsplit(None, 3)
        rows[name] = float(share.rstrip("%"))
    assert "alone runs" in rows and "run_workload" in rows
    # Each share is rounded to 0.1%, so the sum may miss 100 by 0.05 a row.
    assert sum(rows.values()) == pytest.approx(100.0, abs=0.05 * len(rows))


def test_cli_dispatches_trace_verb(capsys):
    from repro.cli import main

    rc = main(["trace", "summarize", "--quanta", "1",
               "--quantum-cycles", "50000", "--epoch-cycles", "5000"])
    assert rc == 0
    assert "quantum 0 @" in capsys.readouterr().out


def test_cli_list_mentions_obs_verbs(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "trace" in out and "profile" in out


# ----------------------------------------------------------------------
# Stage profiler.

def test_stage_profiler_results_bit_identical():
    from repro.obs.profile import StageProfiler

    baseline = _fingerprint(_run())
    profiler = StageProfiler()
    factories = {
        "asm": lambda: AsmModel(sampled_sets=CONFIG.ats_sampled_sets)
    }
    profiled = run_workload(
        _mix(),
        CONFIG,
        model_factories=factories,
        policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
        quanta=2,
        system_hooks=[profiler.attach],
    )
    assert _fingerprint(profiled) == baseline
    stages = profiler.stages
    assert stages["engine.drain"].calls > 0
    assert stages["hierarchy.access"].calls > 0
    assert "AsmModel:asm" in stages and "AsmCachePolicy:asm-cache" in stages
    assert "engine.drain" in profiler.table()
    listeners = sum(
        timing.seconds for name, timing in stages.items()
        if name not in ("engine.drain", "hierarchy.access")
    )
    assert sum(seconds for _, _, seconds in profiler.rows()) == pytest.approx(
        stages["engine.drain"].seconds + listeners
    )


def test_stage_profiler_spans_are_exclusive():
    from repro.obs.profile import StageProfiler

    profiler = StageProfiler()
    inner = profiler.timed("inner", lambda: sum(range(20_000)))

    def body():
        inner()
        inner()
        return "done"

    assert profiler.timed("outer", body)() == "done"
    stages = profiler.stages
    assert stages["outer"].calls == 1 and stages["inner"].calls == 2
    assert sum(seconds for _, _, seconds in profiler.rows()) == pytest.approx(
        stages["outer"].seconds
    )
    assert stages["outer"].exclusive == pytest.approx(
        stages["outer"].seconds - stages["inner"].seconds
    )


# ----------------------------------------------------------------------
# Campaign profile mode.

def _asm_cell(mix):
    """A two-quantum cell of ``mix`` with sampled ASM attached."""
    from repro.experiments.table3_quantum_epoch import asm_models
    from repro.parallel import CellSpec

    return CellSpec(mix=mix, config=CONFIG, quanta=2, recipe=asm_models,
                    recipe_args=(CONFIG,))


def test_campaign_profile_mode(tmp_path):
    store_dir = str(tmp_path / "camp")
    campaign = Campaign("obs-test", store_dir, profile=True)
    mix = _mix()
    [result] = campaign.run_cells([_asm_cell(mix)])
    assert result is not None
    assert len(campaign.cell_timings) == 1
    timing = campaign.cell_timings[0]
    assert timing.mix == mix.name and timing.events > 0
    table = campaign.timing_table()
    assert mix.name in table and "events/s" in table
    key = campaign.run_key(mix, CONFIG, 2, "")
    snapshots = campaign.store.get_metrics(key)
    assert snapshots is not None and len(snapshots) == 2
    for snap in snapshots:
        hits = snap["core0.demand_hits"]
        misses = snap["core0.demand_misses"]
        assert hits + misses == snap["core0.demand_accesses"]


def test_campaign_profile_results_match_unprofiled(tmp_path):
    [plain] = Campaign("plain", None).run_cells([_asm_cell(_mix())])
    [profiled] = Campaign("prof", None, profile=True).run_cells(
        [_asm_cell(_mix())]
    )
    assert _fingerprint(plain) == _fingerprint(profiled)


def test_profiled_cells_match_across_worker_counts(tmp_path):
    from repro.parallel import CellSpec
    from repro.resilience.inject import benign_model_factories

    cells = [
        CellSpec(mix=make_mix(apps, seed=3), config=CONFIG, quanta=2,
                 recipe=benign_model_factories)
        for apps in (["mcf", "bzip2"], ["milc", "ft"])
    ]
    cells.append(CellSpec(mix=make_mix(["lbm", "soplex"], seed=3),
                          config=CONFIG.with_engine("analytic"), quanta=2))
    campaigns = []
    for workers in (1, 2):
        campaign = Campaign("prof", str(tmp_path / f"w{workers}"), profile=True)
        assert all(campaign.run_cells(cells, workers=workers))
        campaigns.append(campaign)
    serial, pool = campaigns

    def timing_keys(campaign):
        return [(t.mix, t.variant, t.quanta, t.events)
                for t in campaign.cell_timings]

    assert [t.mix for t in serial.cell_timings] == [c.mix.name for c in cells]
    assert timing_keys(serial) == timing_keys(pool)
    events = [t.events for t in pool.cell_timings]
    assert events[0] > 0 and events[1] > 0 and events[2] == 0
    assert serial.pool_utilization is None
    assert 0 < pool.pool_utilization <= 1
    serial_metrics, pool_metrics = (
        (tmp_path / f"w{workers}" / "metrics.jsonl").read_bytes()
        for workers in (1, 2)
    )
    assert serial_metrics == pool_metrics
