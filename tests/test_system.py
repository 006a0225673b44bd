"""Integration tests for the memory hierarchy and system wiring."""

import dataclasses

import pytest

from repro.cpu.trace import TraceRecord
from repro.harness.system import System
from repro.workloads.mixes import make_mix


def _fixed_trace(lines, gap=10, writes=False):
    def generate():
        for line in lines:
            yield TraceRecord(gap=gap, line_addr=line, is_write=writes)

    return generate()


def _two_core_system(config, traces=None, **kwargs):
    config = dataclasses.replace(config, num_cores=2)
    if traces is None:
        traces = [
            _fixed_trace(range(0, 4000, 1)),
            _fixed_trace(range(1 << 20, (1 << 20) + 4000)),
        ]
    return System(config, traces, **kwargs)


def test_llc_hit_and_miss_accounting(small_system_config):
    config = dataclasses.replace(small_system_config, num_cores=1)
    # Touch 8 lines twice: 8 misses then 8 hits.
    lines = list(range(8)) + list(range(8))
    system = System(config, [_fixed_trace(lines, gap=50)], enable_epochs=False)
    system.run_until(100_000)
    assert system.hierarchy.demand_misses[0] == 8
    assert system.hierarchy.demand_hits[0] == 8


def test_secondary_miss_is_not_double_counted(small_system_config):
    config = dataclasses.replace(small_system_config, num_cores=1)
    # Two back-to-back accesses to one line: the second arrives while the
    # fill is in flight (gap 0 -> within DRAM latency).
    system = System(config, [_fixed_trace([7, 7], gap=0)], enable_epochs=False)
    system.run_until(100_000)
    assert system.hierarchy.demand_misses[0] == 1
    assert system.hierarchy.secondary_misses[0] == 1


def test_access_listeners_fire_per_demand_access(small_system_config):
    events = []
    system = _two_core_system(small_system_config)
    system.hierarchy.access_listeners.append(
        lambda core, line, w, hit, now: events.append((core, hit))
    )
    system.run_until(20_000)
    assert events
    assert {core for core, _ in events} == {0, 1}


def test_service_intervals_balance(small_system_config):
    starts = {"hit": 0, "miss": 0}
    ends = {"hit": 0, "miss": 0}

    def listener(core, is_hit, is_start, now):
        kind = "hit" if is_hit else "miss"
        if is_start:
            starts[kind] += 1
        else:
            ends[kind] += 1

    system = _two_core_system(small_system_config)
    system.hierarchy.service_listeners.append(listener)
    system.run_until(50_000)
    # Events may be in flight at the horizon, but ends never exceed starts.
    assert ends["hit"] <= starts["hit"]
    assert ends["miss"] <= starts["miss"]
    assert starts["miss"] > 0


def test_writebacks_reach_dram(small_system_config):
    config = dataclasses.replace(small_system_config, num_cores=1)
    # Write-heavy streaming through a cache-overflowing footprint forces
    # dirty evictions -> DRAM writes.
    lines = list(range(4096))
    system = System(
        config, [_fixed_trace(lines, gap=5, writes=True)], enable_epochs=False
    )
    writes_seen = []
    original = system.controller.enqueue

    def spy(request):
        if request.is_write:
            writes_seen.append(request)
        original(request)

    system.controller.enqueue = spy
    system.run_until(300_000)
    assert writes_seen, "dirty victims must be written back"


def test_epoch_driver_rotates_priority(small_system_config):
    system = _two_core_system(small_system_config, seed=1)
    owners = []
    system.epoch_listeners.append(lambda owner: owners.append(owner))
    system.run_until(small_system_config.epoch_cycles * 20)
    assert len(owners) >= 20
    assert set(owners) == {0, 1}


def test_round_robin_epochs(small_system_config):
    system = _two_core_system(
        small_system_config, seed=1, epoch_assignment="round_robin"
    )
    owners = []
    system.epoch_listeners.append(lambda owner: owners.append(owner))
    system.run_until(small_system_config.epoch_cycles * 10)
    assert owners[:6] == [0, 1, 0, 1, 0, 1]


def test_invalid_epoch_assignment(small_system_config):
    with pytest.raises(ValueError):
        _two_core_system(small_system_config, epoch_assignment="magic")


def test_epoch_weights_bias_assignment(small_system_config):
    system = _two_core_system(small_system_config, seed=2)
    system.set_epoch_weights([0.99, 0.01])
    owners = []
    system.epoch_listeners.append(lambda owner: owners.append(owner))
    system.run_until(small_system_config.epoch_cycles * 50)
    assert owners.count(0) > owners.count(1) * 3


def test_epoch_weight_validation(small_system_config):
    system = _two_core_system(small_system_config)
    with pytest.raises(ValueError):
        system.set_epoch_weights([1.0])  # wrong length
    with pytest.raises(ValueError):
        system.set_epoch_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        system.set_epoch_weights([-1.0, 2.0])
    system.set_epoch_weights([2.0, 1.0])
    system.set_epoch_weights(None)


def test_trace_count_must_match_cores(small_system_config):
    with pytest.raises(ValueError):
        System(small_system_config, [_fixed_trace([1])])


def test_prefetcher_generates_llc_traffic(small_system_config):
    config = dataclasses.replace(
        small_system_config,
        num_cores=1,
        core=dataclasses.replace(small_system_config.core, prefetcher_enabled=True),
    )
    # A pure streaming trace trains the stride prefetcher immediately.
    system = System(config, [_fixed_trace(range(5000), gap=20)], enable_epochs=False)
    system.run_until(200_000)
    hierarchy = system.hierarchy
    assert hierarchy.prefetchers[0] is not None
    # Every demand line is new, so only prefetch fills can make a demand
    # access hit or merge into an in-flight fill.
    assert hierarchy.demand_hits[0] + hierarchy.secondary_misses[0] > 0


def test_prefetching_improves_streaming_performance(small_system_config):
    def run(prefetch):
        config = dataclasses.replace(
            small_system_config,
            num_cores=1,
            core=dataclasses.replace(
                small_system_config.core, prefetcher_enabled=prefetch
            ),
        )
        system = System(
            config, [_fixed_trace(range(50_000), gap=20)], enable_epochs=False
        )
        system.run_until(300_000)
        return system.cores[0].committed_instructions(300_000)

    # The stream is DRAM-bandwidth-bound, so prefetching can only hide
    # latency, not add bandwidth: expect a modest but real speedup.
    assert run(True) > run(False) * 1.05


def test_committed_instructions_snapshot(small_system_config):
    system = _two_core_system(small_system_config)
    system.run_until(50_000)
    committed = system.committed_instructions()
    assert len(committed) == 2
    assert all(c > 0 for c in committed)


def test_prefetch_fill_writes_back_its_dirty_victim(small_system_config):
    """A prefetch fill that evicts a dirty line enqueues that line's
    writeback, as a demand miss does."""
    from repro.engine import Engine
    from repro.harness.system import MemoryHierarchy
    from repro.mem.controller import MemoryController

    config = dataclasses.replace(small_system_config, num_cores=1).with_prefetcher()
    engine = Engine()
    controller = MemoryController(engine, config.dram, 1)
    hierarchy = MemoryHierarchy(engine, config, controller)
    llc = hierarchy.llc
    # Demand accesses to lines 0, 1, 2 make the stride prefetcher
    # confident; it then prefetches `distance` lines ahead, line 26 first.
    target = 2 + config.core.prefetch_distance
    dirty = [target + k * llc.num_sets for k in range(1, config.llc.associativity + 1)]
    for line in dirty:  # fill the target's set with dirty lines
        llc.access(0, line, is_write=True)
    for line in (0, 1, 2):
        hierarchy.access(0, line, False, None)
    writebacks = [r.line_addr for r in controller.write_queues[0]]
    assert writebacks == [dirty[0]], "the LRU dirty victim is written back"
