"""Tests for the durability layer: atomic writes, checksummed stores,
chaos fault plans, supervised retry, and the campaign wiring."""

import errno
import json
import os

import pytest

from repro.config import scaled_config
from repro.durability.atomic import (
    DurableStream,
    append_line,
    atomic_write_text,
)
from repro.durability.chaos import (
    CHAOS_ENV_VAR,
    ChaosSpecError,
    FaultPlan,
    active_plan,
    set_plan,
)
from repro.durability.cli import campaign_main
from repro.durability.retry import (
    TRANSIENT_ERRORS,
    CircuitBreaker,
    RetryPolicy,
    failure_signature,
)
from repro.durability.store import (
    ChecksummedLog,
    compact_log,
    envelope_line,
    header_line,
    payload_digest,
    read_log,
    repair_log,
    verify_log,
)
from repro.parallel import CellSpec
from repro.resilience.campaign import Campaign, CampaignStore
from repro.resilience.faults import RunFailure
from repro.resilience.inject import (
    InjectedFault,
    exploding_model_factories,
    flaky_model_factories,
)
from repro.workloads.mixes import make_mix

CONFIG = scaled_config().with_quantum(50_000, 5_000)


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    """Keep every test hermetic: no plan installed, env var unset."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    set_plan(None)
    yield
    set_plan(None)


def _mix(seed=11):
    return make_mix(["mcf", "bzip2"], seed=seed)


def _run_one(campaign, mix, quanta, recipe, *recipe_args):
    """Run one cell of ``mix`` on CONFIG built by ``recipe``."""
    cell = CellSpec(mix=mix, config=CONFIG, quanta=quanta, recipe=recipe,
                    recipe_args=recipe_args)
    return campaign.run_cells([cell])[0]


def _write_clean_log(path, payloads):
    log = ChecksummedLog(str(path))
    for payload in payloads:
        log.append(payload)
    return log


# ---------------------------------------------------------------------------
# chaos: fault-plan grammar and activation


def test_fault_plan_parse_roundtrip():
    spec = "kill:mid_record@runs.jsonl#2;io:enospc@alone.jsonl:0.25;seed:7"
    plan = FaultPlan.parse(spec)
    assert plan.kill_point == "mid_record"
    assert plan.kill_file == "runs.jsonl"
    assert plan.kill_nth == 2
    assert plan.io_fault == "enospc"
    assert plan.io_file == "alone.jsonl"
    assert plan.io_rate == 0.25
    assert plan.seed == 7


@pytest.mark.parametrize(
    "spec",
    [
        "kill:warp_core",
        "io:gamma_ray",
        "kill:mid_record#zero",
        "kill:mid_record#0",
        "io:enospc@f:1.5",
        "seed:banana",
        "explode:now",
    ],
)
def test_fault_plan_rejects_bad_specs(spec):
    with pytest.raises(ChaosSpecError):
        FaultPlan.parse(spec)


def test_active_plan_reads_env_and_programmatic_override(monkeypatch):
    assert active_plan() is None
    monkeypatch.setenv(CHAOS_ENV_VAR, "kill:after_append@x.jsonl")
    assert active_plan().kill_point == "after_append"
    installed = FaultPlan(io_fault="enospc")
    set_plan(installed)
    assert active_plan() is installed


def test_io_draw_is_deterministic_and_file_gated():
    plan = FaultPlan(io_fault="enospc", io_file="runs.jsonl", io_rate=0.5)
    draws = [plan.io_draw("append", "/a/runs.jsonl", s) for s in range(50)]
    assert draws == [
        plan.io_draw("append", "/b/runs.jsonl", s) for s in range(50)
    ]
    assert any(d == "enospc" for d in draws)
    assert any(d is None for d in draws)
    assert plan.io_draw("append", "/a/alone.jsonl", 1) is None


# ---------------------------------------------------------------------------
# atomic: append / snapshot / stream primitives


def test_append_line_appends_durably(tmp_path):
    path = tmp_path / "log.jsonl"
    append_line(str(path), "one")
    append_line(str(path), "two\n")
    assert path.read_text() == "one\ntwo\n"


def test_atomic_write_text_replaces_without_tmp_residue(tmp_path):
    path = tmp_path / "snap.json"
    atomic_write_text(str(path), "old\n")
    atomic_write_text(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["snap.json"]


def test_durable_stream_buffers_and_closes_idempotently(tmp_path):
    path = tmp_path / "trace.jsonl"
    stream = DurableStream(str(path))
    stream.write("a\n")
    stream.write("b\n")
    stream.close()
    stream.close()  # idempotent
    assert path.read_text() == "a\nb\n"
    with pytest.raises(ValueError, match="closed"):
        stream.write("c\n")


def test_injected_enospc_aborts_append(tmp_path):
    path = tmp_path / "log.jsonl"
    set_plan(FaultPlan(io_fault="enospc", io_rate=1.0))
    with pytest.raises(OSError) as excinfo:
        append_line(str(path), "doomed")
    assert excinfo.value.errno == errno.ENOSPC
    assert not path.exists()


def test_injected_partial_write_leaves_torn_prefix(tmp_path):
    path = tmp_path / "log.jsonl"
    append_line(str(path), "committed")
    set_plan(FaultPlan(io_fault="partial_write", io_rate=1.0))
    with pytest.raises(OSError) as excinfo:
        append_line(str(path), "torn-record-here")
    assert excinfo.value.errno == errno.EIO
    set_plan(None)
    text = path.read_text()
    assert text.startswith("committed\n")
    assert "torn-record-here" not in text  # only a prefix landed
    assert len(text) > len("committed\n")


def test_injected_slow_fsync_still_writes(tmp_path):
    path = tmp_path / "log.jsonl"
    set_plan(FaultPlan(io_fault="slow_fsync", io_rate=1.0, slow_fsync_s=0.0))
    append_line(str(path), "slow but sure")
    assert path.read_text() == "slow but sure\n"


# ---------------------------------------------------------------------------
# store: format, damage taxonomy, repair, compaction


def test_clean_log_roundtrip_and_header(tmp_path):
    path = tmp_path / "log.jsonl"
    payloads = [{"key": f"k{i}", "value": i} for i in range(5)]
    _write_clean_log(path, payloads)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == header_line()
    assert json.loads(lines[1])["seq"] == 1
    loaded, report = read_log(str(path))
    assert loaded == payloads
    assert report.has_header
    assert report.intact_records == 5
    assert not report.damaged


def test_payload_digest_is_canonical():
    assert payload_digest({"b": 2, "a": 1}) == payload_digest({"a": 1, "b": 2})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})


def test_torn_tail_detected_and_truncated(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_clean_log(path, [{"v": 1}, {"v": 2}])
    with open(path, "a") as handle:
        handle.write('{"seq": 3, "sha": "abcd')  # torn mid-record
    report = verify_log(str(path))
    assert report.damaged
    assert report.torn_tail is not None
    loaded, _ = read_log(str(path))
    assert loaded == [{"v": 1}, {"v": 2}]  # the tear never committed
    result = repair_log(str(path))
    assert result.rewritten and result.truncated_tail
    assert result.kept_records == 2
    assert result.quarantined == 0  # a torn tail is truncated, not kept
    assert not verify_log(str(path)).damaged


def test_checksum_mismatch_quarantined_without_data_loss(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_clean_log(path, [{"v": 1}, {"v": 2}, {"v": 3}])
    lines = path.read_text().strip().splitlines()
    # Flip a payload bit in the middle record: sha no longer matches.
    lines[2] = lines[2].replace('"v": 2', '"v": 99')
    path.write_text("\n".join(lines) + "\n")
    report = verify_log(str(path))
    assert report.damaged and report.checksum_mismatches
    result = repair_log(str(path))
    assert result.quarantined == 1
    assert result.kept_records == 2
    quarantine = path.with_suffix(".jsonl.quarantine")
    assert quarantine.exists()
    assert '"v": 99' in quarantine.read_text()  # forensics preserved
    loaded, report = read_log(str(path))
    assert loaded == [{"v": 1}, {"v": 3}]
    assert not report.damaged


def test_verify_detects_every_synthetic_corruption(tmp_path):
    """Acceptance: 100% detection — corrupting any one record is caught."""
    payloads = [{"key": f"k{i}", "value": i} for i in range(8)]
    clean = tmp_path / "clean.jsonl"
    _write_clean_log(clean, payloads)
    clean_lines = clean.read_text().strip().splitlines()
    for victim in range(1, len(clean_lines)):  # every record line
        path = tmp_path / f"corrupt_{victim}.jsonl"
        lines = list(clean_lines)
        lines[victim] = lines[victim].replace('"value"', '"malice"')
        path.write_text("\n".join(lines) + "\n")
        assert verify_log(str(path)).damaged, f"line {victim} undetected"
        repaired = repair_log(str(path))
        assert repaired.kept_records == len(payloads) - 1
        assert not verify_log(str(path)).damaged


def test_sequence_gap_reported_not_fatal(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "w") as handle:
        handle.write(header_line() + "\n")
        handle.write(envelope_line(1, {"v": 1}) + "\n")
        handle.write(envelope_line(5, {"v": 5}) + "\n")
    report = verify_log(str(path))
    assert report.sequence_gaps == [(1, 5)]
    assert not report.damaged  # nothing local to fix
    loaded, _ = read_log(str(path))
    assert loaded == [{"v": 1}, {"v": 5}]


def test_legacy_v1_lines_load_and_upgrade_on_repair(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "w") as handle:
        handle.write('{"key": "a", "value": 1}\n')
        handle.write('{"key": "b", "value": 2}\n')
    loaded, report = read_log(str(path))
    assert loaded == [{"key": "a", "value": 1}, {"key": "b", "value": 2}]
    assert report.legacy_records == 2 and not report.has_header
    result = repair_log(str(path))
    assert result.rewritten
    report = verify_log(str(path))
    assert report.has_header
    assert report.intact_records == 2 and report.legacy_records == 0
    assert read_log(str(path))[0] == loaded


def test_repair_leaves_clean_files_alone(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_clean_log(path, [{"v": 1}])
    before = path.read_text()
    result = repair_log(str(path))
    assert not result.rewritten
    assert path.read_text() == before


def test_compact_keeps_last_record_per_key_and_keyless(tmp_path):
    path = tmp_path / "log.jsonl"
    _write_clean_log(
        path,
        [
            {"key": "a", "value": 1},
            {"no_key": True},
            {"key": "b", "value": 2},
            {"key": "a", "value": 3},
        ],
    )

    def key_of(payload):
        key = payload.get("key")
        return key if isinstance(key, str) else None

    result = compact_log(str(path), key_of)
    assert result.dropped_duplicates == 1
    assert result.kept_records == 3
    loaded, _ = read_log(str(path))
    assert loaded == [
        {"no_key": True},
        {"key": "b", "value": 2},
        {"key": "a", "value": 3},
    ]


def test_checksummed_log_continues_sequence_across_reopen(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _write_clean_log(path, [{"v": 1}, {"v": 2}])
    assert log.next_seq == 3
    reopened = ChecksummedLog(str(path))
    assert reopened.next_seq == 3
    assert reopened.append({"v": 3}) == 3
    loaded, report = read_log(str(path))
    assert loaded == [{"v": 1}, {"v": 2}, {"v": 3}]
    assert report.sequence_gaps == []


def test_checksummed_log_heals_torn_tail_before_appending(tmp_path):
    """Reopening over a mid-record tear (torn prefix, no trailing
    newline) must truncate it first — an 'a'-mode append would otherwise
    weld the new envelope onto the prefix into one corrupt line."""
    path = tmp_path / "log.jsonl"
    _write_clean_log(path, [{"v": 1}])
    with open(path, "a") as handle:
        handle.write('{"seq": 2, "sha": "ab')  # torn mid-record, no \n
    log = ChecksummedLog(str(path))
    assert log.next_seq == 2  # the torn record was never committed
    assert log.append({"v": 2}) == 2
    loaded, report = read_log(str(path))
    assert loaded == [{"v": 1}, {"v": 2}]
    assert not report.damaged


def test_checksummed_log_heals_tear_inside_first_line(tmp_path):
    """A tear inside the very first line (the header) truncates to an
    empty file; the next append must re-write the header."""
    path = tmp_path / "log.jsonl"
    path.write_text(header_line()[:10])  # torn header, no newline
    log = ChecksummedLog(str(path))
    assert log.append({"v": 1}) == 1
    loaded, report = read_log(str(path))
    assert loaded == [{"v": 1}]
    assert report.has_header and not report.damaged


def test_checksummed_log_never_reuses_damaged_or_gapped_seqs(tmp_path):
    path = tmp_path / "log.jsonl"
    bad = envelope_line(2, {"v": 2}).replace('"v": 2', '"v": 666')
    assert '"v": 666' in bad  # payload tampered, sha now stale
    with open(path, "w") as handle:
        handle.write(header_line() + "\n")
        handle.write(envelope_line(1, {"v": 1}) + "\n")
        handle.write(bad + "\n")  # checksum mismatch still owns seq 2
        handle.write(envelope_line(5, {"v": 5}) + "\n")  # gap 3-4
    log = ChecksummedLog(str(path))
    assert log.next_seq == 6  # past the high-water mark, not count+1
    assert log.append({"v": 6}) == 6
    report = verify_log(str(path))
    assert report.checksum_mismatches and report.sequence_gaps == [(1, 5)]
    assert report.sequence_regressions == []


def test_sequence_regression_reported_not_fatal(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "w") as handle:
        handle.write(header_line() + "\n")
        handle.write(envelope_line(4, {"v": 4}) + "\n")
        handle.write(envelope_line(2, {"v": 2}) + "\n")  # mixed-up file
        handle.write(envelope_line(5, {"v": 5}) + "\n")  # vs high-water 4
    report = verify_log(str(path))
    assert report.sequence_regressions == [(4, 2)]
    assert report.sequence_gaps == []  # 5 follows the high-water mark
    assert not report.damaged  # nothing local to fix
    assert "seq regressions" in report.summary()


def test_missing_file_reads_empty_and_repairs_to_nothing(tmp_path):
    path = str(tmp_path / "absent.jsonl")
    loaded, report = read_log(path)
    assert loaded == [] and not report.damaged
    assert not repair_log(path).rewritten
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# retry: policy, breaker, give-up records


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-1)
    with pytest.raises(ValueError):
        RetryPolicy(cell_budget_s=0)
    assert not RetryPolicy().supervised
    assert RetryPolicy(max_attempts=2).supervised


def test_retry_delay_is_deterministic_exponential_and_jittered():
    policy = RetryPolicy(max_attempts=5, backoff_s=0.1, seed=3)
    d1 = policy.delay_s(1, "cell")
    d2 = policy.delay_s(2, "cell")
    assert d1 == policy.delay_s(1, "cell")  # deterministic
    assert 0.075 <= d1 <= 0.125  # 0.1 * (1 +/- 0.25)
    assert 0.15 <= d2 <= 0.25  # doubled base
    assert policy.delay_s(1, "cell") != policy.delay_s(1, "other-cell")
    with pytest.raises(ValueError):
        policy.delay_s(0, "cell")


def test_retry_budget_gate():
    assert RetryPolicy().within_budget(1e9)  # no budget: always within
    policy = RetryPolicy(cell_budget_s=1.0)
    assert policy.within_budget(0.5)
    assert not policy.within_budget(1.0)


def test_circuit_breaker_trips_on_repeated_deterministic_failure():
    breaker = CircuitBreaker()
    breaker.record_failure("cell", "AssertionError", "boom")
    assert breaker.allows("cell")
    breaker.record_failure("cell", "AssertionError", "boom")
    assert not breaker.allows("cell")
    breaker.record_success("cell")
    assert breaker.allows("cell")


def test_circuit_breaker_never_trips_on_transients():
    breaker = CircuitBreaker()
    for _ in range(10):
        breaker.record_failure("cell", "WorkerCrash", "exit 13")
    assert breaker.allows("cell")
    # A transient between two identical deterministic failures resets
    # the repeat count: the evidence chain is broken.
    breaker.record_failure("cell", "AssertionError", "boom")
    breaker.record_failure("cell", "WorkerCrash", "exit 13")
    breaker.record_failure("cell", "AssertionError", "boom")
    assert breaker.allows("cell")


def test_failure_signature_and_transient_set():
    assert failure_signature("E", "m") == failure_signature("E", "m")
    assert failure_signature("E", "m") != failure_signature("E", "n")
    assert "WorkerCrash" in TRANSIENT_ERRORS
    assert "DeadlineExceeded" in TRANSIENT_ERRORS


def test_run_failure_give_up_roundtrip_and_validation():
    failure = RunFailure(
        experiment="t",
        variant="v",
        mix_name="m",
        mix_seed=1,
        specs=[],
        config_fingerprint="abc",
        quanta=1,
        error_type="InjectedFault",
        message="boom",
        attempts=3,
        reason="attempts_exhausted",
    )
    restored = RunFailure.from_json(json.loads(json.dumps(failure.to_json())))
    assert restored == failure
    # The give-up fields are not part of the cell's identity.
    unsupervised = RunFailure(**{**failure.to_json(), "attempts": 1, "reason": None})
    assert failure.fingerprint() == unsupervised.fingerprint()
    # Records written before the give-up fields existed still load, as one
    # unsupervised attempt; from_json also drops keys it does not know.
    legacy = {
        k: v for k, v in failure.to_json().items()
        if k not in ("attempts", "reason")
    }
    assert RunFailure.from_json({**legacy, "elapsed_s": 1.5}) == unsupervised
    with pytest.raises(ValueError, match="unknown give-up reason"):
        RunFailure(**{**failure.to_json(), "reason": "gremlins"})


# ---------------------------------------------------------------------------
# campaign wiring: retries, degradation, supervisor metrics


def test_campaign_recovers_transient_failure_by_retry(tmp_path):
    sentinel = str(tmp_path / "sentinel")
    campaign = Campaign(
        "t", str(tmp_path / "store"),
        retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
    )
    result = _run_one(
        campaign, _mix(), 1, flaky_model_factories, sentinel, "raise"
    )
    assert result is not None
    assert campaign.retried_cells == 1
    assert campaign.retry_attempts == 1
    assert campaign.failures == []
    assert "1 recovered by retry (1 retry attempts)" in campaign.summary()


def test_campaign_circuit_breaker_stops_deterministic_retries(tmp_path):
    campaign = Campaign(
        "t", str(tmp_path / "store"), keep_going=True,
        retry_policy=RetryPolicy(max_attempts=9, backoff_s=0.0),
    )
    result = _run_one(campaign, _mix(), 1, exploding_model_factories, 0)
    assert result is None
    # trip_threshold=2: one retry proves the failure repeats, then the
    # circuit opens — the other 7 attempts are not burned.
    assert campaign.retry_attempts == 1
    assert len(campaign.failures) == 1
    failure = campaign.failures[0]
    assert failure.reason == "circuit_open"
    assert failure.attempts == 2
    assert failure.error_type == "InjectedFault"
    assert "1 DEGRADED" in campaign.summary()
    assert "1 FAILED" in campaign.summary()
    # The give-up is one persisted record.
    store = CampaignStore(str(tmp_path / "store"))
    assert store.load_failures() == [failure]
    assert sorted(os.listdir(tmp_path / "store")) == [
        "failures.jsonl", "metrics.jsonl"
    ]


def test_campaign_retries_wall_clock_timeouts_as_transient(tmp_path):
    # A timed-out cell fails as DeadlineExceeded with the same message
    # every time; it must use up its attempts, not trip the breaker.
    campaign = Campaign(
        "t", str(tmp_path / "store"), keep_going=True,
        wall_clock_budget_s=1e-9,
        retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
    )
    assert campaign.run_mix(_mix(), CONFIG, quanta=1) is None
    assert [(f.reason, f.attempts) for f in campaign.failures] == [
        ("attempts_exhausted", 3)
    ]


def test_campaign_unsupervised_failure_raises_without_keep_going(tmp_path):
    campaign = Campaign("t", str(tmp_path / "store"))
    with pytest.raises(InjectedFault):
        _run_one(campaign, _mix(), 1, exploding_model_factories, 0)
    # Default policy is unsupervised: a failure is not a degradation.
    assert [(f.reason, f.attempts) for f in campaign.failures] == [(None, 1)]
    assert "DEGRADED" not in campaign.summary()


def test_retried_cell_metrics_match_uninterrupted_run(tmp_path):
    """Counters from a failed attempt must not leak into the retry: the
    metrics persisted for a retried cell are bit-identical to an
    uninterrupted run's."""
    sentinel = str(tmp_path / "sentinel")
    clean_dir = str(tmp_path / "clean")
    retried_dir = str(tmp_path / "retried")
    policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
    mix = _mix()

    open(sentinel, "w").close()  # sentinel present: flaky never fires
    clean = Campaign("t", clean_dir, profile=True, retry_policy=policy)
    _run_one(clean, mix, 2, flaky_model_factories, sentinel, "raise")
    assert clean.retry_attempts == 0

    os.unlink(sentinel)  # sentinel absent: first attempt fails
    retried = Campaign("t", retried_dir, profile=True, retry_policy=policy)
    _run_one(retried, mix, 2, flaky_model_factories, sentinel, "raise")
    assert retried.retry_attempts == 1

    key = clean.run_key(mix, CONFIG, 2)
    clean_metrics = CampaignStore(clean_dir).get_metrics(key)
    retried_metrics = CampaignStore(retried_dir).get_metrics(key)
    assert clean_metrics, "profiled run persisted no metrics"
    assert retried_metrics == clean_metrics


def test_supervisor_metrics_persisted_in_store(tmp_path):
    sentinel = str(tmp_path / "sentinel")
    store_dir = str(tmp_path / "store")
    campaign = Campaign(
        "t", store_dir,
        retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
    )
    _run_one(campaign, _mix(), 1, flaky_model_factories, sentinel, "raise")
    snapshots = CampaignStore(store_dir).get_metrics("__supervisor__")
    assert snapshots, "supervisor counters not persisted"
    assert snapshots[-1]["supervisor.retried_cells"] == 1
    assert snapshots[-1]["supervisor.retry_attempts"] == 1


def test_campaign_store_survives_torn_tail(tmp_path):
    store_dir = str(tmp_path / "store")
    campaign = Campaign("t", store_dir)
    campaign.run_mix(_mix(), CONFIG, quanta=1)
    runs_path = os.path.join(store_dir, "runs.jsonl")
    with open(runs_path, "a") as handle:
        handle.write('{"seq": 99, "sha": "to')  # torn append
    resumed = Campaign("t", store_dir, resume=True)
    result = resumed.run_mix(_mix(), CONFIG, quanta=1)
    assert result is not None
    assert resumed.resumed == 1 and resumed.computed == 0


def test_rerun_without_resume_appends_no_equal_records(tmp_path):
    store_dir = tmp_path / "store"
    Campaign("t", str(store_dir)).run_mix(_mix(), CONFIG, quanta=1)
    names = ("runs.jsonl", "alone.jsonl")
    written = {name: (store_dir / name).read_bytes() for name in names}
    rerun = Campaign("t", str(store_dir))
    assert rerun.run_mix(_mix(), CONFIG, quanta=1) is not None
    assert rerun.computed == 1 and rerun.resumed == 0
    assert {name: (store_dir / name).read_bytes() for name in names} == written
    # NaN != NaN: a recomputed record holding one is appended again.
    store = CampaignStore(str(store_dir))
    store.put_run("nan", {"ipc": [float("nan")]})
    store.put_run("nan", {"ipc": [float("nan")]})
    loaded, _ = read_log(str(store_dir / "runs.jsonl"))
    assert [p["key"] for p in loaded].count("nan") == 2


# ---------------------------------------------------------------------------
# CLI verbs (unit level; the subprocess path is in test_chaos_resume)


def test_campaign_cli_missing_store_exits_2(tmp_path, capsys):
    rc = campaign_main(["verify", str(tmp_path / "nope")])
    assert rc == 2
    assert "no such store" in capsys.readouterr().err


def test_campaign_cli_empty_store_exits_0(tmp_path, capsys):
    rc = campaign_main(["verify", str(tmp_path)])
    assert rc == 0
    assert "no store files" in capsys.readouterr().out


def test_campaign_cli_verify_repair_roundtrip(tmp_path, capsys):
    path = tmp_path / "runs.jsonl"
    _write_clean_log(path, [{"key": "a", "result": 1}])
    with open(path, "a") as handle:
        handle.write('{"seq": 2, "sha": "ab')
    assert campaign_main(["verify", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DAMAGED" in out and "repair" in out
    assert campaign_main(["repair", str(tmp_path)]) == 0
    assert "torn tail truncated" in capsys.readouterr().out
    assert campaign_main(["verify", str(tmp_path)]) == 0
    assert "intact" in capsys.readouterr().out
    # Quarantine files are never scanned as stores.
    (tmp_path / "runs.jsonl.quarantine").write_text("garbage\n")
    assert campaign_main(["verify", str(tmp_path)]) == 0
