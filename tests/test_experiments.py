"""Smoke tests for every experiment driver at tiny scale.

The full-scale runs are ``python -m repro <verb>`` at each driver's
defaults; here each driver runs with minimal workloads to validate
plumbing and result formatting.
"""

import dataclasses

import pytest

from repro.config import scaled_config
from repro.experiments import (
    ablations,
    db_workloads,
    error_comparison,
    fig01_car_proxy,
    fig04_error_distribution,
    fig05_prefetching,
    fig06_latency_distribution,
    fig07_core_count,
    fig08_cache_size,
    fig09_asm_cache,
    fig10_asm_mem,
    fig11_qos,
    sec64_mise_vs_asm,
    sec72_combined,
    table3_quantum_epoch,
)
from repro.experiments.common import format_table
from repro.harness import runner
from repro.resilience.campaign import Campaign


@pytest.fixture(scope="module")
def tiny_config():
    return scaled_config().with_quantum(100_000, 5_000)


def test_format_table_alignment():
    table = format_table(["a", "metric"], [["x", 1.234], ["yy", 10.0]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "1.23" in table and "10.00" in table


def test_fig01_driver(tiny_config):
    result = fig01_car_proxy.run(
        apps=("bzip2",),
        intensities=(0.2, 1.0),
        cache_pressures=(0.5,),
        cycles=80_000,
        config=tiny_config,
    )
    assert "bzip2" in result.points
    assert len(result.points["bzip2"]) == 2
    assert "pearson_r" in result.format_table()


def test_error_comparison_driver(tiny_config):
    result = error_comparison.run(
        sampled=True, num_mixes=2, quanta=1, config=tiny_config
    )
    assert result.survey.mean_error("asm") >= 0
    assert "Fig 3" in result.format_table()
    result = error_comparison.run(
        sampled=False, num_mixes=1, quanta=1, config=tiny_config
    )
    assert "Fig 2" in result.format_table()


def test_fig04_driver(tiny_config):
    result = fig04_error_distribution.run(num_mixes=2, quanta=1, config=tiny_config)
    for model in ("asm", "fst", "ptca"):
        hist = result.histogram(model)
        assert sum(hist) == pytest.approx(1.0)
    assert "band" in result.format_table()


def test_fig05_driver(tiny_config):
    result = fig05_prefetching.run(num_mixes=1, quanta=1, config=tiny_config)
    assert result.with_prefetch.mean_error("asm") >= 0
    assert "prefetch" in result.format_table()


def test_fig06_driver(tiny_config, monkeypatch):
    # Fig. 6 reads the models' internals, never a cell's ground-truth
    # slowdowns, so it simulates no alone leg.
    def no_alone_leg(*args):
        raise AssertionError("fig06 simulated an alone leg")

    monkeypatch.setattr(runner, "_checkpoints", no_alone_leg)
    result = fig06_latency_distribution.run(
        sampled=False, num_mixes=1, quanta=1, config=tiny_config
    )
    assert result.estimates["actual"]
    assert result.mean_abs_deviation("asm") >= 0
    assert "alone miss service" in result.format_table()


def test_fig07_driver(tiny_config):
    result = fig07_core_count.run(
        core_counts=(2, 4),
        mixes_per_count={2: 1, 4: 1},
        quanta=1,
        config=tiny_config,
    )
    assert set(result.surveys) == {2, 4}
    assert "cores" in result.format_table()


def test_fig08_driver(tiny_config):
    result = fig08_cache_size.run(
        sizes=(128 * 1024, 256 * 1024), num_mixes=1, quanta=1, config=tiny_config
    )
    assert set(result.surveys) == {128 * 1024, 256 * 1024}
    assert "128KB" in result.format_table()


def test_table3_driver(tiny_config):
    result = table3_quantum_epoch.run(
        quantum_lengths=(50_000, 100_000),
        epoch_lengths=(5_000, 10_000),
        num_mixes=1,
        config=tiny_config,
    )
    assert (100_000, 5_000) in result.errors
    assert "quantum" in result.format_table()


def test_table3_resumes_under_a_stored_campaign(tiny_config, tmp_path):
    def sweep(campaign):
        return table3_quantum_epoch.run(
            quantum_lengths=(50_000,), epoch_lengths=(5_000, 10_000),
            num_mixes=1, config=tiny_config, campaign=campaign,
        )

    store = str(tmp_path / "table3")
    fresh = sweep(Campaign("table3", store))
    resumed = Campaign("table3", store, resume=True)
    assert sweep(resumed).errors == fresh.errors
    assert (resumed.computed, resumed.resumed) == (0, 2)


def test_table3_row_simulates_each_alone_leg_once(monkeypatch):
    # A row's epoch columns share their alone legs, and the later columns
    # read further into them: each leg starts once and is extended.
    started = []
    checkpoints = runner._checkpoints

    def count_starts(trace, config, interval):
        started.append(trace)
        return checkpoints(trace, config, interval)

    monkeypatch.setattr(runner, "_checkpoints", count_starts)
    config = scaled_config()
    table3_quantum_epoch.run(
        quantum_lengths=(200_000,), num_mixes=2, config=config
    )
    assert len(started) == 2 * config.num_cores


def test_sec64_driver(tiny_config):
    result = sec64_mise_vs_asm.run(num_mixes=2, quanta=1, config=tiny_config)
    assert result.survey.mean_error("mise") >= 0
    assert "cache_sensitive_apps" in result.format_table()


def test_db_workloads_driver(tiny_config):
    result = db_workloads.run(num_mixes=1, quanta=1, config=tiny_config)
    assert result.survey.mean_error("asm") >= 0


def test_fig09_driver(tiny_config):
    result = fig09_asm_cache.run(
        core_counts=(2,), mixes_per_count={2: 1}, quanta=1, config=tiny_config
    )
    assert (2, "asm-cache") in result.outcomes
    assert (2, "ucp") in result.outcomes


def test_fig09_llc_scaling_option(tiny_config):
    result = fig09_asm_cache.run(
        core_counts=(2,),
        mixes_per_count={2: 1},
        quanta=1,
        config=tiny_config,
        llc_bytes_per_core=64 * 1024,
    )
    assert (2, "asm-cache") in result.outcomes


def test_fig10_driver(tiny_config):
    result = fig10_asm_mem.run(
        core_counts=(2,), mixes_per_count={2: 1}, quanta=1, config=tiny_config
    )
    assert (2, "asm-mem") in result.outcomes
    assert (2, "parbs") in result.outcomes


def test_sec72_driver(tiny_config):
    result = sec72_combined.run(
        num_cores=2, num_mixes=1, quanta=1, config=tiny_config
    )
    assert "asm-cache-mem" in result.outcomes


def test_fig11_driver(tiny_config):
    result = fig11_qos.run(bounds=(2.0,), quanta=1, config=tiny_config)
    assert "naive-qos" in result.slowdowns
    assert "asm-qos-2.0" in result.slowdowns


def test_ablations_driver(tiny_config):
    result = ablations.run(
        num_mixes=1, quanta=1, sampling_sweep=(16, None), config=tiny_config
    )
    assert "ats-full" in result.errors
    assert "round-robin-epochs" in result.errors
    assert "no-queueing-correction" in result.errors
