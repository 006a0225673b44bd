"""Tests for the run orchestration and ground-truth machinery."""

import itertools
import math

import pytest

from repro.config import scaled_config
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    alone_cap,
    run_alone,
    run_workload,
)
from repro.models.asm import AsmModel
from repro.workloads.mixes import WorkloadMix, make_mix


def test_alone_profile_interpolation():
    profile = AloneProfile(checkpoint_interval=100, instructions=[50, 100, 150])
    assert profile.time_at(0) == 0.0
    assert profile.time_at(50) == 100.0
    assert profile.time_at(75) == 150.0
    assert profile.time_at(150) == 300.0


def test_alone_profile_extrapolates_past_range():
    profile = AloneProfile(checkpoint_interval=100, instructions=[50, 100])
    # Slope of last interval: 50 instructions per 100 cycles.
    assert profile.time_at(125) == pytest.approx(250.0)


def test_alone_profile_empty_assumes_one_ipc():
    profile = AloneProfile(checkpoint_interval=100, instructions=[])
    assert profile.time_at(0) == 0.0
    assert profile.time_at(250) == 250.0


def test_alone_profile_single_checkpoint_extrapolates():
    profile = AloneProfile(checkpoint_interval=100, instructions=[50])
    # Only one checkpoint: extrapolate with its own rate (50 per 100 cycles).
    assert profile.time_at(100) == pytest.approx(200.0)


def test_alone_profile_flat_tail_uses_average_rate():
    # The run stalled at 60 instructions: the last interval's slope is 0.
    profile = AloneProfile(checkpoint_interval=10, instructions=[30, 60, 60])
    # Whole-profile average: 60 insts over 3 checkpoints = 20 per interval.
    assert profile.time_at(80) == pytest.approx((3 + 20 / 20) * 10)


def test_alone_profile_zero_progress_is_unreachable():
    profile = AloneProfile(checkpoint_interval=10, instructions=[0, 0])
    assert profile.time_at(5) == float("inf")


def test_alone_profile_cycles_for_span_monotone():
    profile = AloneProfile(checkpoint_interval=10, instructions=[10, 30, 60])
    assert profile.cycles_for_span(10, 30) == pytest.approx(10.0)
    assert profile.cycles_for_span(0, 60) == pytest.approx(30.0)


def test_run_alone_produces_monotone_profile():
    config = scaled_config()
    mix = make_mix(["gcc"], seed=1)
    profile = run_alone(mix.trace_for_core(0), config, cycles=100_000)
    assert len(profile.instructions) == 50
    assert all(
        a <= b for a, b in zip(profile.instructions, profile.instructions[1:])
    )
    assert profile.instructions[-1] > 0


def test_alone_leg_ends_on_a_whole_checkpoint():
    # Two 3000-cycle quanta cap the legs at 9000 cycles, which is not a
    # whole number of 2000-cycle checkpoints. time_at reads the last
    # checkpoint as cycle 10000, so that is where it must be taken.
    config = scaled_config(1).with_quantum(3000, 1000)
    mix = make_mix(["mcf"], seed=1)
    cap = alone_cap(config, 2)
    assert cap == 9000
    profile = run_alone(mix.trace_for_core(0), config, cap)
    assert profile == run_alone(mix.trace_for_core(0), config, 10_000)
    assert profile.time_at(profile.instructions[-1]) == 10_000
    assert AloneRunCache().get(mix, 0, config, cap) == profile


class StallingMix(WorkloadMix):
    """A mix whose traces end early: its alone legs go flat."""

    def trace_for_core(self, core):
        return itertools.islice(super().trace_for_core(core), 300)


@pytest.mark.parametrize("stalls", [False, True], ids=["running", "stalled"])
def test_lazy_leg_answers_as_the_whole_leg(stalls):
    config = scaled_config().with_quantum(20_000, 5_000)
    mix = make_mix(["mcf"], seed=1)
    if stalls:
        mix = StallingMix(mix.name, mix.specs, mix.seed)
    cap = 40_000
    whole = run_alone(mix.trace_for_core(0), config, cap)
    insts = whole.instructions
    if stalls:
        assert insts[-1] == insts[-2]  # the leg is flat by its cap
    asks = [
        insts[4] - 1,  # inside the prefix
        insts[4],  # on a checkpoint
        insts[9] + 1,
        insts[-1],
        insts[-1] + 1,  # past the cap: extrapolated
        3 * insts[-1],
    ]
    live = AloneRunCache()
    for ask in asks:
        fresh = AloneRunCache().get(mix, 0, config, cap, ask)
        extended = live.get(mix, 0, config, cap, ask)
        for lazy in (fresh, extended):
            assert lazy.instructions == insts[: len(lazy.instructions)]
            assert lazy.time_at(ask) == whole.time_at(ask)
            assert lazy.cycles_for_span(ask // 3, ask) == whole.cycles_for_span(
                ask // 3, ask
            )
    assert len(AloneRunCache().get(mix, 0, config, cap, asks[0]).instructions) == 5
    assert live.misses == 1 and live.hits == len(asks) - 1  # never restarted


def test_alone_cache_reuses_profiles():
    config = scaled_config().with_quantum(100_000, 5_000)
    mix = make_mix(["gcc", "mcf"], seed=2)
    cache = AloneRunCache()
    run_workload(mix, config, quanta=1, alone_cache=cache)
    assert len(cache.prefixes()) == 2
    run_workload(mix, config, quanta=1, alone_cache=cache)
    assert len(cache.prefixes()) == 2  # second run hits the cache


def test_run_workload_ground_truth_sane():
    config = scaled_config().with_quantum(200_000, 5_000)
    mix = make_mix(["mcf", "bzip2", "libquantum", "h264ref"], seed=1)
    result = run_workload(
        mix,
        config,
        model_factories={"asm": lambda: AsmModel(sampled_sets=16)},
        quanta=2,
    )
    assert len(result.records) == 2
    for record in result.records:
        for core in range(4):
            actual = record.actual_slowdowns[core]
            assert not math.isnan(actual)
            # Interference can only slow applications down (within noise).
            assert actual > 0.9
            assert record.estimates["asm"][core] >= 1.0


def test_run_result_aggregates():
    config = scaled_config().with_quantum(150_000, 5_000)
    mix = make_mix(["mcf", "ft"], seed=4)
    result = run_workload(
        mix,
        config,
        model_factories={"asm": lambda: AsmModel(sampled_sets=16)},
        quanta=2,
    )
    slowdowns = result.mean_actual_slowdowns()
    assert len(slowdowns) == 2
    assert result.max_slowdown() == max(slowdowns)
    assert 0 < result.harmonic_speedup() <= 1.5
    errors = result.errors_for("asm")
    assert len(errors) == 2
    assert result.mean_error("asm") >= 0


def test_run_workload_is_deterministic():
    config = scaled_config().with_quantum(100_000, 5_000)
    mix = make_mix(["mcf", "ft"], seed=4)
    a = run_workload(mix, config, quanta=1)
    b = run_workload(mix, config, quanta=1)
    assert a.records[0].instructions == b.records[0].instructions
    assert a.records[0].actual_slowdowns == b.records[0].actual_slowdowns
