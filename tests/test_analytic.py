"""Tests for the closed-form fidelity tier (repro.analytic)."""

import bisect
import dataclasses
import filecmp
import itertools
import os
import subprocess
import sys
import time as _time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import cpi
from repro.analytic.cpi import solve_alone, solve_shared
from repro.analytic.crossval import (
    ASM_DIVERGENCE_TOLERANCE_PCT,
    CROSSVAL_SAMPLE,
    DivergenceEntry,
    DivergenceReport,
    compare_results,
    cross_validate,
)
from repro.analytic.llc import alone_hit_rate, shared_hit_rates
from repro.analytic.reuse import (
    _PROFILE_CACHE,
    SAMPLE_ACCESSES,
    ReuseProfile,
    _bucket_bounds,
    _extract,
    extract_profile,
    profile_mix,
)
from repro.analytic.runner import (
    ENGINE_FOR_FIDELITY,
    FIDELITY_TIERS,
    resolve_fidelity,
    run_analytic,
)
from repro.cli import main as cli_main
from repro.cloud.spec import FleetSpec
from repro.config import SystemConfig, scaled_config
from repro.experiments import error_comparison, fidelity_sweep
from repro.experiments.common import (
    default_mixes,
    survey_errors,
    unsampled_models,
)
from repro.harness.system import System
from repro.parallel import CellSpec, run_cells
from repro.resilience.campaign import Campaign
from repro.resilience.faults import config_fingerprint
from repro.resilience.inject import exploding_model_factories
from repro.workloads.hog import hog_spec
from repro.workloads.mixes import WorkloadMix, make_mix, random_mixes
from repro.workloads.synthetic import AppSpec, SyntheticTrace

# Small platform so the event-oracle legs simulate quickly.
CONFIG = scaled_config().with_quantum(50_000, 5_000)
ANALYTIC = CONFIG.with_engine("analytic")


def _mix(seed=1):
    return make_mix(["mcf", "bzip2", "libquantum", "h264ref"], seed=seed)


def _analytic_cells(mixes):
    return [CellSpec(mix=mix, config=ANALYTIC, quanta=1) for mix in mixes]


# ----------------------------------------------------------------------
# Profiles and the closed-form solve.

def test_profile_measures_the_generator():
    profile = extract_profile(_mix(), 0)
    assert profile.accesses == SAMPLE_ACCESSES
    assert 0.0 <= profile.cold_frac <= 1.0
    assert 0.0 <= profile.write_frac <= 1.0
    assert profile.instructions_per_access() >= 1.0
    # D(n) is increasing, concave-ish, and bounded by n.
    assert profile.distinct_lines(0) == 0.0
    d1, d100 = profile.distinct_lines(1), profile.distinct_lines(100)
    assert 0.0 < d1 <= 1.0
    assert d1 <= d100 <= 100.0


def test_profile_memoised_per_process():
    mix = _mix(3)
    first = extract_profile(mix, 1)
    assert extract_profile(mix, 1) is first


def _reference_profile(spec, trace, sample_accesses):
    """``astuple`` of a profile computed from the definitions.

    Keeps an explicit LRU stack, most recent line first: a reuse's stack
    distance is its line's index in the stack, its time distance the
    accesses elapsed since the line's previous touch.
    """
    stack = []
    last_touch = {}
    bounds = _bucket_bounds(sample_accesses)
    counts = [0] * len(bounds)
    sd_sums = [0] * len(bounds)
    td_sums = [0] * len(bounds)
    cold = gap_total = writes = seq = 0
    prev_line = None
    records = itertools.islice(trace, sample_accesses)
    for t, record in enumerate(records):
        line = record.line_addr
        gap_total += record.gap
        writes += record.is_write
        seq += prev_line is not None and line == prev_line + 1
        prev_line = line
        if line in last_touch:
            stack_distance = stack.index(line)
            bucket = bisect.bisect_right(bounds, stack_distance) - 1
            counts[bucket] += 1
            sd_sums[bucket] += stack_distance
            td_sums[bucket] += t - last_touch[line]
            del stack[stack_distance]
        else:
            cold += 1
        stack.insert(0, line)
        last_touch[line] = t
    buckets = tuple(
        (count, sd_sum / count, td_sum / count)
        for count, sd_sum, td_sum in zip(counts, sd_sums, td_sums)
        if count
    )
    return (
        spec.name,
        sample_accesses,
        gap_total / sample_accesses,
        writes / sample_accesses,
        seq / sample_accesses,
        cold / sample_accesses,
        buckets,
    )


@pytest.mark.parametrize("seed", [1, 6])
def test_profile_matches_an_explicit_lru_stack(seed):
    names = ["mcf", "libquantum", "lbm", "h264ref", "omnetpp"]
    specs = tuple(make_mix(names).specs) + (hog_spec(0.8, 0.6),)
    mix = WorkloadMix(name="reference", specs=specs, seed=seed)
    for core, spec in enumerate(specs):
        for sample_accesses in (1, 2, 3, 2048):
            profile = _extract(spec, mix.trace_for_core(core), sample_accesses)
            reference = _reference_profile(
                spec, mix.trace_for_core(core), sample_accesses
            )
            assert dataclasses.astuple(profile) == reference


@given(
    footprint=st.integers(1, 64),
    reuse_prob=st.floats(0.0, 1.0),
    reuse_depth=st.integers(1, 64),
    seq_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 1 << 20),
    sample_accesses=st.integers(1, 512),
)
@settings(max_examples=200, deadline=None)
def test_profile_matches_an_explicit_lru_stack_on_tiny_footprints(
    footprint, reuse_prob, reuse_depth, seq_frac, seed, sample_accesses
):
    # A footprint of a few lines reuses almost every access, at every
    # stack distance from 0 to the footprint, many times over.
    spec = AppSpec(
        name="tiny", apki=50.0, reuse_prob=reuse_prob,
        reuse_depth=reuse_depth, footprint_lines=footprint, seq_frac=seq_frac,
    )
    profile = _extract(spec, SyntheticTrace(spec, seed), sample_accesses)
    reference = _reference_profile(
        spec, SyntheticTrace(spec, seed), sample_accesses
    )
    assert dataclasses.astuple(profile) == reference


def test_cpi_of_matches_the_closed_form():
    # A hand-built profile, so the check reads only _cpi_of's algebra:
    # CPI = CPI_exec + (1 - wf) / (g + 1) * (h * L_llc / olap + (1 - h) * stall).
    profile = ReuseProfile(
        spec_name="hand", accesses=1, mean_gap=3.0, write_frac=0.25,
        seq_frac=0.0, cold_frac=0.0, buckets=(),
    )
    gap, stall = 3.0, 180.0
    core = CONFIG.core
    olap = cpi._overlap(gap, core.window_size)
    for hit_rate in (0.2, 0.6, 0.9):
        expected = cpi._cpi_exec(gap, core.issue_width) + (1 - 0.25) / (
            gap + 1
        ) * (hit_rate * CONFIG.llc.latency / olap + (1 - hit_rate) * stall)
        assert cpi._cpi_of(profile, hit_rate, stall, CONFIG) == pytest.approx(
            expected, rel=1e-12
        )


def test_shared_solve_never_beats_alone():
    mix = _mix(2)
    profiles = profile_mix(mix)
    shared = solve_shared(profiles, CONFIG)
    for profile, rates in zip(profiles, shared):
        alone = solve_alone(profile, CONFIG)
        # Interference can only slow a core down.
        assert rates.cpi >= alone.cpi - 1e-9
        assert rates.hit_rate <= alone.hit_rate + 1e-9


# From Python 3.12 on, sum() compensates float sums. The solver adds
# floats left to right instead, so every supported version computes the
# values below, which are what 3.9 and 3.11 computed all along.

def test_shared_solve_is_the_same_on_every_python_version():
    four = random_mixes(6, 4, seed=5)[2]
    eight = random_mixes(6, 8, seed=5)[0]
    slowdowns = run_analytic(four, scaled_config()).records[0].actual_slowdowns
    assert slowdowns[2] == 2.729066558248351
    slowdowns = run_analytic(eight, scaled_config()).records[0].actual_slowdowns
    assert slowdowns[1:3] == [4.019491156337673, 3.520237127073179]


def test_divergence_summary_is_the_same_on_every_python_version():
    # Errors of 0.1%, 0.2% and 0.3%: the persisted mean reads
    # 0.19999999999999998 where sum() compensates (Python 3.12 on).
    entries = [
        DivergenceEntry(mix="m", core=core, app="mcf", model="asm",
                        fidelity="analytical", oracle=1000.0, estimate=estimate)
        for core, estimate in enumerate((1001.0, 1002.0, 1003.0))
    ]
    summary = DivergenceReport("analytical", entries).summary()
    assert summary["asm"]["mean_abs_pct"] == 0.20000000000000004


def test_shared_hit_rates_add_co_runner_insertions_left_to_right():
    # Three all-cold co-runners insert 0.1, 0.2 and 0.3 lines during the
    # reuse: 0.6000000000000001 added left to right, 0.6 compensated, so
    # the reuse misses the one-line cache only when added left to right.
    reuse = ReuseProfile(
        spec_name="reuse", accesses=1, mean_gap=0.0, write_frac=0.0,
        seq_frac=0.0, cold_frac=0.0, buckets=((1, 0.3999999999999999, 1.0),),
    )
    cold = dataclasses.replace(reuse, spec_name="cold", cold_frac=1.0,
                               buckets=())
    rates = [1.0, 0.1, 0.2, 0.3]
    hit_rates = shared_hit_rates([reuse, cold, cold, cold], rates, 1)
    assert hit_rates == [0.0, 0.0, 0.0, 0.0]


def _reference_hit_rates(profiles, rates, capacity_lines):
    """``shared_hit_rates`` without its capacity bound: every reuse that
    hits alone adds up each co-runner's insertions, left to right."""
    hit_rates = []
    for i, profile in enumerate(profiles):
        own_rate = rates[i]
        if own_rate <= 0.0:
            hit_rates.append(alone_hit_rate(profile, capacity_lines))
            continue
        hits = 0.0
        for count, mean_sd, mean_td in profile.buckets:
            if mean_sd >= capacity_lines:
                continue
            elapsed = mean_td / own_rate
            insertions = 0.0
            for j, other in enumerate(profiles):
                if j != i:
                    insertions += other.distinct_lines(rates[j] * elapsed)
            if mean_sd + insertions < capacity_lines:
                hits += count
        hit_rates.append(hits / profile.accesses)
    return hit_rates


@st.composite
def _drawn_profiles(draw):
    """A profile as extraction builds one: its reuses and cold accesses
    add up to the sample, and each reuse spans more accesses than its
    stack distance."""
    accesses = draw(st.integers(1, 400))
    cold = accesses
    buckets = []
    for count in draw(st.lists(st.integers(1, 60), max_size=8)):
        if count > cold:
            break
        cold -= count
        mean_sd = draw(st.floats(0.0, 120.0))
        mean_td = mean_sd + 1.0 + draw(st.floats(0.0, 2000.0))
        buckets.append((count, mean_sd, mean_td))
    return ReuseProfile(
        spec_name="drawn", accesses=accesses, mean_gap=0.0, write_frac=0.0,
        seq_frac=0.0, cold_frac=cold / accesses, buckets=tuple(buckets),
    )


@given(
    profiles=st.lists(_drawn_profiles(), min_size=2, max_size=5),
    rates=st.lists(st.floats(0.0, 2.0), min_size=5, max_size=5),
    capacity_lines=st.integers(1, 128),
)
@settings(max_examples=300, deadline=None)
def test_capacity_bound_decides_what_the_sum_decides(
    profiles, rates, capacity_lines
):
    rates = rates[: len(profiles)]
    assert shared_hit_rates(
        profiles, rates, capacity_lines
    ) == _reference_hit_rates(profiles, rates, capacity_lines)


def test_capacity_bound_keeps_a_margin_for_rounding():
    # Every one of the co-runner's n = 10.034... accesses inserts a line,
    # but its distinct_lines(n), 7/43 of n plus 36/43 of n, rounds one ulp
    # above n. That lifts the own reuse from 10.999999999999998 lines to
    # 11.0, a miss in 11 lines, which a bound without its margin would
    # have called a hit.
    co_runner = ReuseProfile(
        spec_name="co", accesses=43, mean_gap=0.0, write_frac=0.0,
        seq_frac=0.0, cold_frac=36 / 43,
        buckets=((7, 0.0, 10.109407028841167),),
    )
    own = dataclasses.replace(
        co_runner, spec_name="own", accesses=1, cold_frac=0.0,
        buckets=((1, 0.9659000866390507, 1.0),),
    )
    rates = [1.0, 10.034099913360947]
    assert co_runner.distinct_lines(rates[1]) > rates[1]
    assert 0.9659000866390507 + rates[1] < 11
    expected = [0.0, 0.16279069767441862]
    assert _reference_hit_rates([own, co_runner], rates, 11) == expected
    assert shared_hit_rates([own, co_runner], rates, 11) == expected


# ----------------------------------------------------------------------
# The runner: RunResult shape, determinism, dispatch guards.

def test_run_analytic_result_shape():
    result = run_analytic(_mix(), CONFIG, quanta=3)
    assert len(result.records) == 3
    for record in result.records:
        assert set(record.estimates) == {"analytic", "asm"}
        assert record.estimates["asm"] == record.actual_slowdowns
        assert record.confidence["asm"] == [1.0] * 4
        assert all(s >= 1.0 - 1e-6 for s in record.actual_slowdowns)
    # Estimating its own ground truth, the survey error is exactly zero.
    assert result.mean_error("asm") == 0.0


def test_run_analytic_deterministic():
    a = run_analytic(_mix(5), CONFIG, quanta=2)
    _PROFILE_CACHE.clear()
    b = run_analytic(_mix(5), CONFIG, quanta=2)
    assert a.records == b.records


def test_resolve_fidelity_mapping():
    assert resolve_fidelity(CONFIG, "") is CONFIG
    for fidelity in FIDELITY_TIERS:
        assert (
            resolve_fidelity(CONFIG, fidelity).engine
            == ENGINE_FOR_FIDELITY[fidelity]
        )
    with pytest.raises(ValueError, match="unknown fidelity"):
        resolve_fidelity(CONFIG, "approximate")


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli_main(["fig02", "--fidelity", "columnar"]),
        lambda: cli_main(["cloud", "run", "--fidelity", "columnar"]),
        lambda: cli_main(["fig02", "--engine", "columnar"]),
        lambda: SystemConfig(engine="columnar").validate(),
        lambda: FleetSpec(fidelity="columnar"),
        lambda: resolve_fidelity(CONFIG, "columnar"),
    ],
    ids=[
        "repro-fidelity",
        "cloud-fidelity",
        "repro-engine",
        "system-config",
        "fleet-spec",
        "resolve-fidelity",
    ],
)
def test_retired_columnar_tier_fails_loudly(call, capsys):
    # The retired third tier must be an error everywhere, never an alias.
    with pytest.raises((SystemExit, ValueError)) as excinfo:
        call()
    if excinfo.type is SystemExit:
        assert excinfo.value.code == 2  # rejected at argument parsing
        assert "columnar" in capsys.readouterr().err
    else:
        message = str(excinfo.value)
        for word in ("columnar", "analytic", "event"):
            assert word in message


def test_system_rejects_analytic_engine():
    config = CONFIG.with_engine("analytic")
    config.validate()  # the config itself is legal...
    with pytest.raises(ValueError, match="never construct a System"):
        System(config, traces=[iter(())] * config.num_cores)


# ----------------------------------------------------------------------
# Fidelity dispatch through campaigns and the pool.

def test_cellspec_fidelity_parallel_matches_serial():
    mixes = default_mixes(2, CONFIG.num_cores, seed=9)
    cells = [
        CellSpec(mix=mix, config=ANALYTIC, quanta=2) for mix in mixes
    ]
    serial = run_cells(Campaign("t", None), cells, workers=1)
    parallel = run_cells(Campaign("t", None), cells, workers=2)
    assert [r.records for r in serial] == [r.records for r in parallel]
    for result in serial:
        assert result.config.engine == "analytic"


def test_survey_at_analytical_fidelity():
    mixes = default_mixes(2, CONFIG.num_cores, seed=4)
    survey = survey_errors(
        mixes, ANALYTIC, quanta=2, recipe=unsampled_models
    )
    # The surrogate's estimate IS its ground truth; models it did not
    # run simply collect no errors instead of poisoning the survey.
    assert survey.mean_error("asm") == 0.0
    assert survey.overall.get("fst", []) == []


# ----------------------------------------------------------------------
# Cross-validation against the event oracle.

def test_crossval_within_documented_tolerance(tmp_path):
    campaign = Campaign("xval", str(tmp_path / "camp"))
    cells = _analytic_cells(default_mixes(2, CONFIG.num_cores, seed=42))
    report = cross_validate(campaign, cells, campaign.run_cells(cells))
    assert report is not None
    assert report.summary()["asm"]["mean_abs_pct"] < ASM_DIVERGENCE_TOLERANCE_PCT
    # The report also landed in the store, next to the other records.
    records = campaign.store.load_divergence()
    assert len(records) == 1
    assert records[0]["key"] == "xval:"
    assert records[0]["summary"]["asm"]["count"] == float(
        CROSSVAL_SAMPLE * CONFIG.num_cores
    )


def test_divergence_report_byte_equal_across_runs(tmp_path):
    cells = _analytic_cells(default_mixes(1, CONFIG.num_cores, seed=11))
    paths = []
    for name in ("a", "b"):
        campaign = Campaign("xval", str(tmp_path / name))
        _PROFILE_CACHE.clear()
        cross_validate(campaign, cells, campaign.run_cells(cells))
        paths.append(tmp_path / name / "divergence.jsonl")
    assert filecmp.cmp(paths[0], paths[1], shallow=False)


def test_analytic_survey_stores_the_same_bytes_under_every_hash_seed(tmp_path):
    # Two interpreters with different hash seeds: a str set walked in hash
    # order changes what the second one writes. Seeds 0 and 1 order even
    # the surrogate's two model names differently, so a slip over that
    # two-name set in cross-validation, outside any pool, shows here.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    for seed in ("0", "1"):
        subprocess.run(
            [sys.executable, "-m", "repro", "fig02", "--mixes", "1",
             "--quanta", "1", "--fidelity", "analytical",
             "--campaign-dir", str(tmp_path / seed)],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, check=True,
        )
    for name in ("runs.jsonl", "alone.jsonl", "divergence.jsonl"):
        first, second = (
            (tmp_path / seed / "fig02" / name).read_bytes() for seed in "01"
        )
        assert first == second, name


def _fig02_errors(**kwargs):
    survey = error_comparison.run(
        sampled=False, num_mixes=2, quanta=1, config=CONFIG, **kwargs
    ).survey
    return {model: survey.overall.get(model) for model in survey.model_names}


def test_analytic_survey_leaves_event_resume_intact(tmp_path):
    # The oracle record is the sampled cell's event twin, models and all,
    # so an event-tier survey resuming the store matches a fresh one.
    store = str(tmp_path / "camp")
    _fig02_errors(campaign=Campaign("fig02", store), fidelity="analytical")
    resumed = Campaign("fig02", store, resume=True)
    assert _fig02_errors(campaign=resumed) == _fig02_errors()
    assert resumed.resumed == 1


def test_repeated_analytic_survey_leaves_divergence_log_unchanged(tmp_path):
    # The report is keyed by experiment and variant, and a repeated survey
    # computes the same one, so it appends nothing.
    store = tmp_path / "camp"
    _fig02_errors(campaign=Campaign("fig02", str(store)), fidelity="analytical")
    first = (store / "divergence.jsonl").read_bytes()
    resumed = Campaign("fig02", str(store), resume=True)
    _fig02_errors(campaign=resumed, fidelity="analytical")
    assert (store / "divergence.jsonl").read_bytes() == first


def test_analytic_survey_computes_one_twin_per_sample(tmp_path):
    # The survey's analytic cells plus one event twin; the sampled
    # surrogate is never re-run.
    campaign = Campaign("fig02", str(tmp_path / "camp"))
    _fig02_errors(campaign=campaign, fidelity="analytical")
    assert campaign.computed == 2 + 1


def test_analytic_survey_records_a_failed_twin(tmp_path):
    # Only the event twin runs the model, so only the twin fails: the
    # survey finishes, the failure is the twin's, and no report persists.
    campaign = Campaign("xval", str(tmp_path / "camp"), keep_going=True)
    mixes = default_mixes(2, CONFIG.num_cores, seed=5)
    survey = survey_errors(
        mixes, ANALYTIC, quanta=1, campaign=campaign,
        recipe=exploding_model_factories,
    )
    assert survey.overall.get("exploding", []) == []
    assert campaign.computed == 2
    [failure] = campaign.store.load_failures()
    assert failure.error_type == "InjectedFault"
    assert failure.config_fingerprint == config_fingerprint(CONFIG)
    assert campaign.store.load_divergence() == []


def test_compare_results_self_is_zero():
    # The analytic tier's estimate IS its measured slowdown, so a run
    # compared against itself diverges by exactly zero everywhere.
    result = run_analytic(_mix(8), CONFIG, quanta=2)
    entries = compare_results(result, result)
    assert entries
    assert all(entry.abs_pct == 0.0 for entry in entries)
    report = DivergenceReport(fidelity="analytical", entries=entries)
    assert report.summary()["asm"]["mean_abs_pct"] == 0.0


def test_fidelity_sweep_reports_analytical_divergence(tmp_path):
    campaign = Campaign("fidelity", str(tmp_path / "camp"))
    result = fidelity_sweep.run(
        num_mixes=1, quanta=1, config=CONFIG, campaign=campaign
    )
    table = result.format_table()
    assert "analytical" in table and "event" in table
    analytic = result.tiers["analytical"].report
    assert analytic.summary()["asm"]["mean_abs_pct"] < ASM_DIVERGENCE_TOLERANCE_PCT
    # One persisted report: the analytic surrogate's, against the oracle.
    records = campaign.store.load_divergence()
    assert [record["fidelity"] for record in records] == ["analytical"]


# ----------------------------------------------------------------------
# Speed acceptance.

def test_paper_scale_cell_under_ten_seconds():
    # Acceptance bound: a 4-core, 100M-cycle analytic cell in < 10 s
    # (CHANGES.md records ~0.13 s cold, best of 3 on a 2-vCPU box).
    config = SystemConfig()  # paper-scale platform, 5M-cycle quanta
    mix = default_mixes(1, config.num_cores, seed=42)[0]
    _PROFILE_CACHE.clear()
    start = _time.perf_counter()
    result = run_analytic(mix, config, quanta=20)  # 20 x 5M cycles
    wall = _time.perf_counter() - start
    assert len(result.records) == 20
    assert wall < 10.0
