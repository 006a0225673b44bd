"""Tests for the parallel campaign execution layer (repro.parallel)."""

import dataclasses
import functools
import gc
import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cloud.node import node_model_factories
from repro.config import scaled_config
from repro.experiments.common import (
    headline_models,
    sampled_models,
    scheme_recipe,
    survey_errors,
    unsampled_models,
)
from repro.experiments import (
    ablations,
    fig09_asm_cache,
    fig10_asm_mem,
    fig11_qos,
    sec72_combined,
)
from repro.experiments.db_workloads import db_models
from repro.experiments.sec64_mise_vs_asm import mise_vs_asm_models
from repro.experiments.table3_quantum_epoch import asm_models
from repro.experiments.telemetry_faults import chaos_model_factories
from repro.harness import runner
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    alone_cap,
    run_alone,
    run_workload,
)
from repro.parallel import CellSpec, WorkerRunError, _CellTask, _cell_worker, run_cells
from repro.resilience.campaign import Campaign, CampaignStore, result_to_json
from repro.resilience.faults import stable_hash
from repro.durability.retry import RetryPolicy
from repro.resilience.inject import (
    InjectedFault,
    benign_model_factories,
    exploding_model_factories,
    flaky_model_factories,
    process_killer_factories,
)
from repro.workloads.mixes import WorkloadMix, make_mix, random_mixes

# Small platform so each cell simulates quickly.
CONFIG = scaled_config().with_quantum(50_000, 5_000)


def _mixes(count, seed=7):
    return random_mixes(count, CONFIG.num_cores, seed=seed)


def _cell(mix, builder=benign_model_factories, args=(), quanta=2):
    return CellSpec(
        mix=mix,
        config=CONFIG,
        quanta=quanta,
        recipe=builder,
        recipe_args=args,
    )


# ----------------------------------------------------------------------
# Determinism: a parallel sweep is bit-identical to a serial one.

def test_parallel_survey_matches_serial():
    mixes = _mixes(3)
    serial = survey_errors(
        mixes, CONFIG, quanta=2, workers=1,
        recipe=benign_model_factories,
    )
    parallel = survey_errors(
        mixes, CONFIG, quanta=2, workers=2,
        recipe=benign_model_factories,
    )
    assert serial.model_names == parallel.model_names
    assert serial.overall == parallel.overall
    assert serial.per_app == parallel.per_app
    assert serial.per_workload == parallel.per_workload


#: The module-level cell recipes the drivers and the fleet hand to a pool.
DRIVER_RECIPES = [
    (unsampled_models, ()),
    (sampled_models, (CONFIG,)),
    (headline_models, (CONFIG,)),
    (mise_vs_asm_models, (CONFIG,)),
    (db_models, (CONFIG,)),
    (chaos_model_factories, (CONFIG,)),
    (asm_models, (CONFIG,)),
    (node_model_factories, (CONFIG,)),
    # The policy drivers' scheme tables, one scheme each through the
    # recipe they share.
    (scheme_recipe, (fig09_asm_cache._schemes, "asm-cache", CONFIG)),
    (scheme_recipe, (fig10_asm_mem._schemes, "tcm", CONFIG)),
    (scheme_recipe, (fig11_qos._schemes, "asm-qos-2.0", CONFIG, (2.0,))),
    (scheme_recipe, (sec72_combined._schemes, "parbs+ucp", CONFIG)),
    (scheme_recipe, (ablations._variants, "round-robin-epochs", CONFIG, (16,))),
]


def _recipe_id(recipe, args):
    if recipe is scheme_recipe:
        return args[0].__module__.rsplit(".", 1)[-1]
    return recipe.__name__


@pytest.mark.parametrize(
    "recipe, args", DRIVER_RECIPES,
    ids=[_recipe_id(recipe, args) for recipe, args in DRIVER_RECIPES],
)
def test_spawned_pool_matches_serial_for_every_driver_recipe(
    monkeypatch, recipe, args
):
    # A forked worker inherits the parent's module state; a spawned one
    # (the default on macOS and Windows) starts from a fresh import. A
    # recipe whose models depend on module state it writes answers the
    # two differently, and a spawned pool differs from a serial run.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        "repro.parallel.ProcessPoolExecutor",
        functools.partial(ProcessPoolExecutor, mp_context=spawn),
    )
    cells = [_cell(mix, recipe, args, quanta=1) for mix in _mixes(2)]
    serial, pool = (
        [
            json.dumps(result_to_json(result), sort_keys=True)
            for result in Campaign("t", None).run_cells(cells, workers=workers)
        ]
        for workers in (1, 2)
    )
    assert serial == pool


def test_run_cells_parallel_matches_serial_results():
    cells = [_cell(mix) for mix in _mixes(2)]
    serial = Campaign("t", None).run_cells(cells, workers=1)
    parallel = Campaign("t", None).run_cells(cells, workers=2)
    assert [r.records for r in serial] == [r.records for r in parallel]


def test_parallel_results_bit_identical_to_serial():
    """The determinism contract: the *serialized* records of a parallel
    sweep are byte-for-byte equal to a serial one — float formatting
    included, not just value equality."""
    cells = [_cell(mix) for mix in _mixes(2)]
    serial = Campaign("t", None).run_cells(cells, workers=1)
    parallel = Campaign("t", None).run_cells(cells, workers=2)
    for left, right in zip(serial, parallel):
        assert json.dumps(result_to_json(left), sort_keys=True) == \
            json.dumps(result_to_json(right), sort_keys=True)


def test_random_mixes_independent_of_count():
    # Per-index seeding: mix i does not depend on how many mixes are drawn.
    longer = random_mixes(5, 4, seed=11)
    shorter = random_mixes(3, 4, seed=11)
    assert longer[:3] == shorter


# ----------------------------------------------------------------------
# Fault isolation in workers.

def test_worker_exception_captured_and_sweep_continues():
    mixes = _mixes(3)
    cells = [
        _cell(mixes[0]),
        _cell(mixes[1], builder=exploding_model_factories, args=(0,)),
        _cell(mixes[2]),
    ]
    campaign = Campaign("t", None, keep_going=True)
    results = campaign.run_cells(cells, workers=2)
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    assert len(campaign.failures) == 1
    failure = campaign.failures[0]
    assert failure.error_type == "InjectedFault"
    assert failure.mix_name == mixes[1].name
    assert "InjectedFault" in failure.traceback


def test_worker_exception_raises_without_keep_going():
    cells = [_cell(_mixes(1)[0], builder=exploding_model_factories, args=(0,))]
    campaign = Campaign("t", None)
    with pytest.raises(WorkerRunError) as excinfo:
        campaign.run_cells(cells, workers=2)
    assert excinfo.value.failure.error_type == "InjectedFault"


def test_worker_hard_crash_recorded_and_pool_recovers():
    mixes = _mixes(2)
    # The crashing cell is submitted first so crash attribution (which
    # scans futures in submission order) is deterministic.
    cells = [
        _cell(mixes[0], builder=process_killer_factories),
        _cell(mixes[1]),
    ]
    campaign = Campaign("t", None, keep_going=True)
    results = campaign.run_cells(cells, workers=2)
    assert results[0] is None
    assert results[1] is not None  # pool was rebuilt and the cell re-run
    assert len(campaign.failures) == 1
    assert campaign.failures[0].error_type == "WorkerCrash"


# ----------------------------------------------------------------------
# Checkpoint/resume through the parallel path.

def test_parallel_resume_after_partial_sweep(tmp_path):
    store = str(tmp_path / "campaign")
    mixes = _mixes(3)
    cells = [_cell(mix) for mix in mixes]

    # A sweep that dies after two cells: only their results are stored.
    first = Campaign("t", store)
    partial = first.run_cells(cells[:2], workers=2)
    assert first.computed == 2

    # Resume computes only the missing cell and reuses stored profiles.
    resumed = Campaign("t", store, resume=True)
    results = resumed.run_cells(cells, workers=2)
    assert resumed.resumed == 2
    assert resumed.computed == 1
    assert all(r is not None for r in results)
    assert [r.records for r in results[:2]] == [r.records for r in partial]

    # The resumed sweep equals a from-scratch serial sweep.
    scratch = Campaign("t", None).run_cells(cells, workers=1)
    assert [r.records for r in results] == [r.records for r in scratch]


def test_parallel_reuses_stored_alone_profiles(tmp_path):
    store = str(tmp_path / "campaign")
    mix = _mixes(1)[0]
    Campaign("t", store).run_cells([_cell(mix)], workers=2)

    again = Campaign("t", store)  # no resume: run cells afresh
    again.run_cells([_cell(mix)], workers=2)
    cache = again.alone_cache()
    assert cache.store_hits == mix.num_cores
    assert cache.misses == 0


def _older_store(path, cell, checkpoints=None):
    """A store holding ``cell``'s alone legs as an older version wrote
    them: whole, or cut to their first ``checkpoints``."""
    store = CampaignStore(path)
    cap = alone_cap(cell.config, cell.quanta)
    for core in range(cell.mix.num_cores):
        whole = run_alone(cell.mix.trace_for_core(core), cell.config, cap)
        key = AloneRunCache._key(cell.mix, core, cell.config, cap)
        store.put_alone(stable_hash(key), AloneProfile(
            whole.checkpoint_interval, whole.instructions[:checkpoints],
        ))


def test_older_whole_legs_resume_as_store_hits(tmp_path, monkeypatch):
    cell = _cell(_mixes(1)[0], quanta=1)
    [fresh] = Campaign("t", None).run_cells([cell])
    _older_store(str(tmp_path), cell)
    written = (tmp_path / "alone.jsonl").read_bytes()

    def no_alone_runs(*args):
        raise AssertionError("a stored whole leg was simulated again")

    monkeypatch.setattr(runner, "_checkpoints", no_alone_runs)
    campaign = Campaign("t", str(tmp_path))
    [result] = campaign.run_cells([cell])
    assert result.records == fresh.records
    stats = campaign.alone_cache().stats()
    assert (stats["store_hits"], stats["misses"]) == (cell.mix.num_cores, 0)
    assert (tmp_path / "alone.jsonl").read_bytes() == written


def test_short_stored_prefixes_are_resimulated(tmp_path):
    cell = _cell(_mixes(1)[0], quanta=1)
    fresh_dir, short_dir = str(tmp_path / "fresh"), str(tmp_path / "short")
    [fresh] = Campaign("t", fresh_dir).run_cells([cell])
    _older_store(short_dir, cell, checkpoints=2)
    campaign = Campaign("t", short_dir)
    [result] = campaign.run_cells([cell])
    assert result.records == fresh.records
    assert campaign.alone_cache().misses == cell.mix.num_cores
    # Each leg is re-simulated from cycle 0 to the prefix a fresh run keeps.
    fresh_store, short_store = CampaignStore(fresh_dir), CampaignStore(short_dir)
    cap = alone_cap(cell.config, cell.quanta)
    for core in range(cell.mix.num_cores):
        key = stable_hash(AloneRunCache._key(cell.mix, core, cell.config, cap))
        kept = short_store.get_alone(key)
        assert kept == fresh_store.get_alone(key)
        assert len(kept.instructions) > 2


# ----------------------------------------------------------------------
# Picklability of the payloads the pool ships around.

def test_run_result_pickle_roundtrip():
    mix = make_mix(["mcf", "libquantum", "astar", "povray"], seed=3)
    result = run_workload(mix, CONFIG, quanta=1, **benign_model_factories())
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert clone.mean_actual_slowdowns() == result.mean_actual_slowdowns()


def test_alone_profile_pickle_roundtrip():
    profile = AloneProfile(checkpoint_interval=2000,
                           instructions=[100, 250, 400])
    clone = pickle.loads(pickle.dumps(profile))
    assert clone == profile
    assert clone.time_at(300) == profile.time_at(300)


def test_cell_spec_is_picklable():
    cell = _cell(_mixes(1)[0])
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell
    assert clone.recipe is benign_model_factories


@pytest.mark.parametrize("kind", ["lambda", "nested-def"])
def test_cell_spec_rejects_an_unpicklable_recipe(kind):
    # A pool pickles the recipe by reference, so it must fail at
    # construction, in a serial run as well as under --workers.
    def nested():
        return benign_model_factories()

    recipe = nested if kind == "nested-def" else lambda: nested()
    with pytest.raises((pickle.PicklingError, AttributeError)):
        _cell(_mixes(1)[0], builder=recipe)


def test_pool_attempt_collects_its_systems():
    # A worker's peak memory must not depend on which cells it ran
    # before: the systems of one attempt are gone before the next starts.
    task = _CellTask(_cell(_mixes(1)[0], quanta=1), {}, False, None)
    gc.disable()
    try:
        payload = _cell_worker(task)
        assert payload["ok"] and payload["alone"]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Alone-run cache statistics.

def test_alone_cache_counts_hits_and_misses():
    cache = AloneRunCache()
    mix = _mixes(1)[0]
    cache.get(mix, 0, CONFIG, 10_000)
    cache.get(mix, 0, CONFIG, 10_000)
    cache.get(mix, 1, CONFIG, 10_000)
    assert cache.stats() == {
        "hits": 1, "misses": 2, "lookups": 3, "store_hits": 0, "entries": 2,
    }
    assert "1 hits" in cache.summary()
    assert "2 computed" in cache.summary()


def test_campaign_summary_includes_alone_cache_line():
    campaign = Campaign("t", None)
    campaign.run_cells([_cell(_mixes(1)[0], quanta=1)], workers=1)
    assert "alone-run cache" in campaign.summary()


# ----------------------------------------------------------------------
# Supervised retry through the parallel path.

def _retrying_campaign(**kwargs):
    return Campaign(
        "t", None,
        retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
        **kwargs,
    )


def test_parallel_retry_recovers_worker_crash(tmp_path):
    mixes = _mixes(2)
    sentinel = str(tmp_path / "sentinel")
    cells = [
        _cell(mixes[0], builder=flaky_model_factories,
              args=(sentinel, "kill"), quanta=1),
        _cell(mixes[1], quanta=1),
    ]
    campaign = _retrying_campaign()
    results = campaign.run_cells(cells, workers=2)
    assert results[0] is not None and results[1] is not None
    assert campaign.retried_cells == 1
    assert campaign.retry_attempts >= 1
    assert campaign.failures == []
    assert "recovered by retry" in campaign.summary()


def test_parallel_retry_result_matches_serial_retry(tmp_path):
    mix = _mixes(1)[0]
    parallel_sentinel = str(tmp_path / "parallel")
    serial_sentinel = str(tmp_path / "serial")
    parallel_campaign = _retrying_campaign()
    [parallel_result] = parallel_campaign.run_cells(
        [_cell(mix, builder=flaky_model_factories,
               args=(parallel_sentinel, "kill"), quanta=1)],
        workers=2,
    )
    serial_campaign = _retrying_campaign()
    [serial_result] = serial_campaign.run_cells(
        [_cell(mix, builder=flaky_model_factories,
               args=(serial_sentinel, "raise"), quanta=1)],
    )
    assert result_to_json(parallel_result) == result_to_json(serial_result)


def test_parallel_circuit_breaker_stops_deterministic_retries():
    mixes = _mixes(2)
    cells = [
        _cell(mixes[0], builder=exploding_model_factories, args=(0,), quanta=1),
        _cell(mixes[1], quanta=1),
    ]
    campaign = _retrying_campaign(keep_going=True)
    results = campaign.run_cells(cells, workers=2)
    assert results[0] is None and results[1] is not None
    # One retry proves the InjectedFault repeats; the circuit opens and
    # the third permitted attempt is never made.
    assert campaign.retry_attempts == 1
    assert [(f.reason, f.attempts) for f in campaign.failures] == [
        ("circuit_open", 2)
    ]


def test_parallel_degraded_cell_raises_without_keep_going():
    cells = [_cell(_mixes(1)[0], builder=exploding_model_factories,
                   args=(0,), quanta=1)]
    campaign = _retrying_campaign()
    with pytest.raises(WorkerRunError):
        campaign.run_cells(cells, workers=2)
    assert [f.reason for f in campaign.failures] == ["circuit_open"]


def test_cell_budget_charges_a_pool_cell_only_its_own_time(tmp_path):
    """A cell's wall-clock budget is spent by its own attempts and
    backoffs. The flaky cell's failed attempt takes a few hundredths of a
    second; its siblings take far longer than the budget, and so does the
    pool round that holds them. Serial and pool must both retry the cell."""
    budget = 0.25
    mixes = _mixes(3)
    for workers in (1, 2):
        sentinel = str(tmp_path / f"sentinel-{workers}")
        cells = [
            _cell(mixes[0], builder=flaky_model_factories,
                  args=(sentinel, "raise"), quanta=1),
            _cell(mixes[1], quanta=16),
            _cell(mixes[2], quanta=16),
        ]
        campaign = Campaign(
            "t", None, keep_going=True,
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_s=0.0, jitter=0.0,
                cell_budget_s=budget,
            ),
        )
        results = campaign.run_cells(cells, workers=workers)
        assert campaign.failures == [], workers
        assert all(result is not None for result in results)
        assert campaign.retried_cells == 1


# ----------------------------------------------------------------------
# Serial and pool runs keep the same records, not just the same results.

class AloneFaultMix(WorkloadMix):
    """A mix whose alone runs raise; its shared run is clean."""

    def trace_for_core(self, core):
        raise InjectedFault(f"alone run of core {core} failed")


def _alone_fault_cells():
    mix = make_mix(["mcf", "bzip2"], seed=5)
    return [_cell(AloneFaultMix(mix.name, mix.specs, mix.seed), quanta=1)]


def _shared_profile_cells():
    # Same seed, same app on core 0: the two cells share that alone leg.
    # The first cell reads further into it, so the second reuses its prefix.
    return [
        _cell(make_mix(["mcf", "bzip2"], seed=5), quanta=1),
        _cell(make_mix(["mcf", "lbm"], seed=5), quanta=1),
    ]


def _shared_profile_cells_reversed():
    # The shorter reader first: the second cell must extend the prefix.
    return _shared_profile_cells()[::-1]


def _exploding_neighbour_cells():
    return [
        _cell(make_mix(["mcf", "bzip2"], seed=5), quanta=1),
        _cell(make_mix(["gcc", "lbm"], seed=6),
              builder=exploding_model_factories, args=(0,), quanta=1),
    ]


class SecondAloneFaultMix(WorkloadMix):
    """A mix whose core-1 alone run raises, after core 0's alone run has
    been read; its shared run is clean."""

    def trace_for_core(self, core):
        if core:
            raise InjectedFault(f"alone run of core {core} failed")
        return super().trace_for_core(core)


def _failed_extender_cells():
    # The failing cell reads further into the shared mcf leg than the cell
    # before it. A serial batch must drop what it simulated, so the last
    # cell reads the kept prefix, as a pool attempt does.
    longer = make_mix(["mcf", "bzip2"], seed=5)
    shorter = make_mix(["mcf", "lbm"], seed=5)
    return [
        _cell(shorter, quanta=1),
        _cell(SecondAloneFaultMix(longer.name, longer.specs, longer.seed),
              quanta=1),
        dataclasses.replace(_cell(shorter, quanta=1), variant="again"),
    ]


@pytest.mark.parametrize(
    "make_cells",
    [_alone_fault_cells, _shared_profile_cells, _shared_profile_cells_reversed,
     _exploding_neighbour_cells, _failed_extender_cells],
    ids=["alone-fault", "shared-profiles", "shared-profiles-reversed",
         "exploding-neighbour", "failed-extender"],
)
def test_serial_and_pool_keep_the_same_records(tmp_path, make_cells):
    def records(workers):
        store = tmp_path / f"workers{workers}"
        campaign = Campaign(
            "t", str(store), keep_going=True,
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
        )
        results = campaign.run_cells(make_cells(), workers=workers)
        stored = {
            name: (store / name).read_bytes() if (store / name).exists() else None
            for name in (
                "runs.jsonl", "alone.jsonl", "failures.jsonl", "metrics.jsonl"
            )
        }
        return {
            "none": [result is None for result in results],
            "failures": [
                (f.error_type, f.mix_name, f.fingerprint())
                for f in campaign.failures
            ],
            "retries": (campaign.retry_attempts, campaign.retried_cells),
            "summary": campaign.summary(),
            **stored,
        }

    assert records(1) == records(2)


def test_serial_batch_simulates_a_shared_leg_once(monkeypatch):
    # The second cell reads further into the mcf leg than the first: a
    # serial batch extends the leg the first cell left live instead of
    # simulating it again from cycle 0.
    started = []
    checkpoints = runner._checkpoints

    def count_starts(trace, config, interval):
        started.append(trace)
        return checkpoints(trace, config, interval)

    monkeypatch.setattr(runner, "_checkpoints", count_starts)
    cells = _shared_profile_cells_reversed()
    campaign = Campaign("t", None)
    results = campaign.run_cells(cells)
    assert len(started) == 3  # mcf once, lbm once, bzip2 once
    fresh = [Campaign("t", None).run_cells([cell])[0] for cell in cells]
    assert [r.records for r in results] == [r.records for r in fresh]
