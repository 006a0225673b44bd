"""Tests for the features beyond the paper's core evaluation: BLISS,
DRAM refresh, epoch warm-up, row-locality statistics."""

import dataclasses

import pytest

from repro.config import DramConfig, scaled_config
from repro.engine import Engine
from repro.mem.controller import MemoryController
from repro.mem.dram import Channel, DramMapping, service_request
from repro.mem.request import MemRequest
from repro.mem.schedulers import BlissScheduler
from repro.harness.runner import run_workload
from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.workloads.mixes import make_mix


# -- BLISS -------------------------------------------------------------
def _bliss_setup():
    dram = DramConfig()
    channel = Channel(dram.banks_per_rank)
    mapping = DramMapping(dram)

    def req(line, core, arrival):
        r = MemRequest(core=core, line_addr=line, arrival_time=arrival)
        r.channel, r.bank, r.row = mapping.locate(line)
        return r

    return channel, mapping, req


def test_bliss_blacklists_streak_core():
    channel, mapping, req = _bliss_setup()
    scheduler = BlissScheduler(num_cores=2, blacklist_threshold=3)
    # Core 0 has a stream of old requests; core 1's single request is
    # younger, so FCFS order serves core 0 until it gets blacklisted.
    hog = [req(i, core=0, arrival=i) for i in range(6)]
    victim = req(mapping.lines_per_row * 500, core=1, arrival=100)
    for _ in range(3):
        pick = scheduler.pick(hog + [victim], channel, 200)
        assert pick.core == 0
        hog.remove(pick)
    assert scheduler._blacklisted[0]
    pick = scheduler.pick(hog + [victim], channel, 200)
    assert pick.core == 1, "after the streak, the non-blacklisted core wins"


def test_bliss_clears_blacklist_periodically():
    scheduler = BlissScheduler(num_cores=2, clearing_interval=1000)
    scheduler._blacklisted = [True, True]
    scheduler.update(2000, [0, 0])
    assert scheduler._blacklisted == [False, False]


def test_bliss_end_to_end(small_system_config):
    config = scaled_config().with_quantum(100_000, 5_000)
    mix = make_mix(["mcf", "lbm"], seed=3)
    result = run_workload(
        mix,
        config,
        scheduler_factory=lambda: BlissScheduler(2),
        quanta=1,
    )
    assert all(s > 0 for s in result.records[0].shared_ipc)


# -- refresh ------------------------------------------------------------
def test_refresh_closes_rows_and_stalls_banks():
    dram = dataclasses.replace(
        DramConfig(), refresh_enabled=True, trefi_dram_cycles=500
    )
    engine = Engine()
    controller = MemoryController(engine, dram, num_cores=1)
    controller.enqueue(MemRequest(core=0, line_addr=0))
    engine.run(until=dram.trefi + 1)
    assert controller.refreshes_performed >= 1
    bank = controller.channels[0].banks[0]
    assert bank.open_row is None


def test_refresh_delays_requests():
    def total_time(refresh):
        dram = dataclasses.replace(
            DramConfig(), refresh_enabled=refresh, trefi_dram_cycles=200
        )
        engine = Engine()
        controller = MemoryController(engine, dram, num_cores=1)
        done = []
        for i in range(100):
            controller.enqueue(
                MemRequest(core=0, line_addr=i,
                           callback=lambda r: done.append(r.completion_time))
            )
        # Bounded run: the refresh timer reschedules itself forever, so
        # the event queue never drains on its own.
        engine.run(until=1_000_000)
        assert len(done) == 100
        return max(done)

    assert total_time(True) > total_time(False)


def test_refresh_disabled_by_default():
    engine = Engine()
    controller = MemoryController(engine, DramConfig(), num_cores=1)
    engine.run(until=10_000_000)
    assert controller.refreshes_performed == 0


# -- epoch warm-up ---------------------------------------------------------
def test_warmup_excluded_from_measurement():
    config = scaled_config().with_quantum(100_000, 5_000)
    assert config.epoch_warmup_cycles == 1_000
    mix = make_mix(["mcf", "lbm"], seed=4)
    system = System(
        dataclasses.replace(config, num_cores=2), mix.traces(), seed=1
    )
    asm = AsmModel(sampled_sets=16)
    asm.attach(system)
    measure_events = []
    system.measure_listeners.append(lambda owner: measure_events.append(owner))
    epoch_events = []
    system.epoch_listeners.append(lambda owner: epoch_events.append(owner))
    system.run_until(50_000)
    # One measurement window per epoch, with matching owners.
    assert len(measure_events) in (len(epoch_events), len(epoch_events) - 1)
    assert measure_events == epoch_events[: len(measure_events)]


def test_warmup_validation():
    config = scaled_config().with_quantum(100_000, 5_000)
    bad = dataclasses.replace(config, epoch_warmup_cycles=5_000)
    with pytest.raises(ValueError):
        bad.validate()


def test_zero_warmup_still_measures():
    config = dataclasses.replace(
        scaled_config().with_quantum(100_000, 5_000), epoch_warmup_cycles=0
    )
    mix = make_mix(["mcf", "lbm"], seed=5)
    result = run_workload(
        mix,
        config,
        model_factories={"asm": lambda: AsmModel(sampled_sets=16)},
        quanta=1,
    )
    assert all(e >= 1.0 for e in result.records[0].estimates["asm"])
