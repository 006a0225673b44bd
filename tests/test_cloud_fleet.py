"""End-to-end fleet drills: determinism, worker crashes, SIGKILL resume.

Three layers of evidence that the fleet tier is fault-tolerant without
giving up bit-level reproducibility:

* **replay determinism** — two same-seed fleet runs produce identical
  digests (every placement, migration, mode switch and invoice line),
  and identical durable byte streams when storing;
* **worker crashes** — a parallel fleet whose node cell hard-kills a
  worker process once (the retryable ``WorkerCrash`` shape) finishes
  bit-identical to a crash-free serial run;
* **supervisor SIGKILL** — a real fleet subprocess is killed by
  ``REPRO_CHAOS`` mid-append to its keyed stores, then resumed: the
  digest and the ``fleet.jsonl``/``billing.jsonl`` byte streams must
  match an uninterrupted run, ``repro campaign verify`` must pass, and
  the graceful-degradation invariant (naive placement exactly when
  fleet confidence sits below the policy floor) must hold on the
  records read back from disk.
"""

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cloud.fleet import FleetSupervisor
from repro.cloud.spec import FleetChaosSpec, FleetSpec
from repro.config import scaled_config
from repro.durability.retry import RetryPolicy
from repro.durability.store import KeyedLog, read_log
from repro.experiments import fleet_qos
from repro.resilience.campaign import Campaign
from repro.resilience.inject import flaky_node_model_factories

REPO_ROOT = Path(__file__).resolve().parent.parent
DRIVER = Path(__file__).resolve().parent / "fleet_driver.py"

CONFIG = scaled_config().with_quantum(50_000, 5_000)

CHAOS = FleetChaosSpec(
    node_kill_rate=0.2, straggler_rate=0.2, telemetry_rate=0.4, seed=0
)


def small_spec(**overrides):
    base = dict(
        name="small",
        num_nodes=2,
        cores_per_node=2,
        rounds=8,
        quanta_per_round=1,
        seed=3,
        num_tenants=4,
        arrivals_per_round=2,
        tenant_quanta=1,
        chaos=CHAOS,
    )
    base.update(overrides)
    return FleetSpec(**base)


def run_fleet(spec, store_dir=None, *, workers=1, resume=False, policy=None):
    campaign = Campaign(
        f"cloud-{spec.name}",
        store_dir,
        resume=resume,
        keep_going=True,
        retry_policy=policy or RetryPolicy(),
    )
    return FleetSupervisor(spec, CONFIG, campaign, workers=workers).run()


# -- replay determinism -------------------------------------------------

def test_same_seed_replay_is_bit_identical():
    first = run_fleet(small_spec())
    second = run_fleet(small_spec())
    assert first.digest() == second.digest()
    assert len(first.completed) == 4  # the whole stream was served


def test_replay_writes_identical_placement_and_billing_logs(tmp_path):
    store_a = tmp_path / "a"
    store_b = tmp_path / "b"
    run_fleet(small_spec(), str(store_a))
    run_fleet(small_spec(), str(store_b))
    for name in ("fleet.jsonl", "billing.jsonl"):
        assert (store_a / name).read_bytes() == (store_b / name).read_bytes()


def test_fleets_sharing_a_store_key_their_records_by_name(tmp_path):
    # `repro fleet` runs five fleets on one campaign store. Each keys its
    # round and billing records by its name, so no fleet overwrites
    # another's, and a second identical run replays every record.
    store = tmp_path / "fleet"
    paths = [store / "fleet.jsonl", store / "billing.jsonl"]

    def run():
        campaign = Campaign("fleet", str(store))
        result = fleet_qos.run(
            rounds=2, config=CONFIG, num_nodes=2, num_tenants=2,
            campaign=campaign,
        )
        return result, [path.read_bytes() for path in paths]

    result, first = run()
    assert run()[1] == first
    rounds = sorted(
        f"{name}/r{record['round']:04d}"
        for name, fleet in result.results.items()
        for record in fleet.rounds
    )
    invoices = sorted(
        f"{name}/{record.key}"
        for name, fleet in result.results.items()
        for record in fleet.billing
    )
    assert len(result.results) == 5 and len(set(invoices)) == len(invoices)
    for path, keys in zip(paths, (rounds, invoices)):
        assert KeyedLog(str(path)).keys() == keys
        assert len(read_log(str(path))[0]) == len(keys)


# -- worker crashes -----------------------------------------------------

def test_parallel_fleet_with_worker_crash_matches_serial(tmp_path):
    # Serial leg: the sentinel pre-exists, so the flaky model never
    # fires (a crash in serial mode would take the test process down).
    serial_sentinel = tmp_path / "serial-sentinel"
    serial_sentinel.write_text("disarmed\n")
    spec = small_spec(
        recipe=flaky_node_model_factories,
        recipe_args=(str(serial_sentinel), "kill"),
    )
    serial = run_fleet(spec)

    # Parallel leg: fresh sentinel — the first worker to run a node cell
    # hard-kills itself (WorkerCrash), the supervised retry recomputes
    # the cell, and the fleet must still match the serial run exactly.
    crash_sentinel = tmp_path / "crash-sentinel"
    spec = small_spec(
        recipe=flaky_node_model_factories,
        recipe_args=(str(crash_sentinel), "kill"),
    )
    policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
    parallel = run_fleet(spec, workers=2, policy=policy)

    assert crash_sentinel.exists()  # the crash actually fired
    assert parallel.digest() == serial.digest()


# -- graceful degradation -----------------------------------------------

def test_degrades_to_naive_exactly_below_confidence_floor():
    spec = small_spec(rounds=16, num_tenants=6, tenant_quanta=2)
    result = run_fleet(spec)
    assert result.rounds, "fleet ran no rounds"
    for record in result.rounds:
        assert (record["mode"] == "naive") == (
            record["confidence_in"] < spec.confidence_floor
        )
    assert result.asm_rounds + result.naive_rounds == len(result.rounds)
    # The chaos plan must actually have bitten for this to mean much.
    assert result.node_kills > 0
    assert result.degraded_node_rounds > 0


# -- supervisor SIGKILL + resume (subprocess drills) --------------------

def run_driver(store, *, chaos="", resume=False, workers=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    cmd = [sys.executable, str(DRIVER), str(store)]
    if resume:
        cmd.append("--resume")
    if workers > 1:
        cmd.extend(["--workers", str(workers)])
    return subprocess.run(
        cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True
    )


def run_repro(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CHAOS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def fleet_baseline(tmp_path_factory):
    """Digest and keyed-store bytes of an uninterrupted drill run."""
    store = tmp_path_factory.mktemp("fleet-pristine")
    proc = run_driver(store)
    assert proc.returncode == 0, proc.stderr
    return {
        "digest": proc.stdout.strip().splitlines()[-1],
        "fleet": (store / "fleet.jsonl").read_bytes(),
        "billing": (store / "billing.jsonl").read_bytes(),
    }


#: Crash points against the fleet's keyed stores. mid_record uses #2 so
#: the torn line is a record (hit #1 is the store header).
FLEET_KILL_SPECS = [
    "kill:before_append@fleet.jsonl#1",
    "kill:mid_record@fleet.jsonl#2",
    "kill:after_append@fleet.jsonl#3",
    "kill:mid_record@billing.jsonl#2",
    "kill:after_append@billing.jsonl#1",
]


def check_fleet_store_integrity(store, baseline):
    """Resumed drill stores must be byte-identical, verified, and sane."""
    assert (store / "fleet.jsonl").read_bytes() == baseline["fleet"]
    assert (store / "billing.jsonl").read_bytes() == baseline["billing"]
    verify = run_repro("campaign", "verify", str(store))
    assert verify.returncode == 0, verify.stdout + verify.stderr

    # Graceful degradation read back from disk: naive placement exactly
    # when the round opened below the confidence floor.
    spec = FleetSpec()  # the policy floor is spec-level, drill uses default
    rounds = KeyedLog(str(store / "fleet.jsonl")).records()
    assert rounds
    for record in rounds:
        assert (record["mode"] == "naive") == (
            record["confidence_in"] < spec.confidence_floor
        )

    # Zero corrupted billing records: every invoice line read back must
    # be finite, non-negative, and carry a valid decision basis.
    billing = KeyedLog(str(store / "billing.jsonl")).records()
    assert billing
    for record in billing:
        assert record["basis"] in ("estimate", "bound")
        assert math.isfinite(record["charge"]) and record["charge"] >= 0
        assert math.isfinite(record["effective_slowdown"])
        assert record["effective_slowdown"] >= 1.0


@pytest.mark.parametrize("spec", FLEET_KILL_SPECS)
def test_fleet_resume_after_sigkill_is_bit_identical(
    tmp_path, fleet_baseline, spec
):
    store = tmp_path / "store"
    killed = run_driver(store, chaos=spec)
    assert killed.returncode == -signal.SIGKILL, (
        f"{spec}: expected SIGKILL, got rc={killed.returncode}\n"
        f"{killed.stdout}{killed.stderr}"
    )
    resumed = run_driver(store, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == fleet_baseline["digest"]
    check_fleet_store_integrity(store, fleet_baseline)


def test_fleet_resume_of_completed_run_is_idempotent(
    tmp_path, fleet_baseline
):
    store = tmp_path / "store"
    assert run_driver(store).returncode == 0
    resumed = run_driver(store, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == fleet_baseline["digest"]
    check_fleet_store_integrity(store, fleet_baseline)


def test_fleet_drill_exercises_the_chaos_plane(fleet_baseline):
    digest = json.loads(fleet_baseline["digest"])
    counters = digest["counters"]
    assert counters["node_kills"] > 0
    assert counters["naive_rounds"] > 0  # degradation actually happened
    assert counters["bound_decisions"] > 0
    assert digest["unserved"] == []  # chaos never starved the stream
