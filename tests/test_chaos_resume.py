"""End-to-end chaos drills: a real campaign subprocess is SIGKILLed at
every named crash point (and fed injected IO faults), then resumed —
and the resumed results must be bit-identical to an uninterrupted
serial run.

This is the acceptance test of the durability layer: the matrix covers
(crash point x store file), the kills are real ``kill -9``s delivered by
the process to itself mid-write (no Python cleanup runs), and the
baseline digest comes from a separate pristine store. The store
verbs ``repro campaign repair`` and ``compact`` are killed at both
crash points of their atomic rewrite.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.durability.store import ChecksummedLog, read_log, verify_log

REPO_ROOT = Path(__file__).resolve().parent.parent
DRIVER = Path(__file__).resolve().parent / "chaos_driver.py"


def run_driver(store, *, chaos="", resume=False, workers=1, faults=False):
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
    if faults:
        cmd.append("--faults")
    return subprocess.run(
        cmd, env=env, cwd=REPO_ROOT, capture_output=True, text=True
    )


def run_repro(*args, chaos=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Digest of an uninterrupted serial run on a pristine store."""
    store = tmp_path_factory.mktemp("pristine")
    proc = run_driver(store)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


#: (crash point x store file): every append-path crash point against
#: both campaign store files. mid_record uses #2 so the torn line is a
#: record (hit #1 is the store header), i.e. the worst realistic tear.
KILL_SPECS = [
    "kill:before_append@runs.jsonl#1",
    "kill:mid_record@runs.jsonl#2",
    "kill:after_append@runs.jsonl#1",
    "kill:before_append@alone.jsonl#1",
    "kill:mid_record@alone.jsonl#2",
    "kill:after_append@alone.jsonl#1",
]


@pytest.mark.parametrize("spec", KILL_SPECS)
def test_resume_after_sigkill_is_bit_identical(tmp_path, baseline, spec):
    store = tmp_path / "store"
    killed = run_driver(store, chaos=spec, workers=2)
    assert killed.returncode == -signal.SIGKILL, (
        f"{spec}: expected SIGKILL, got rc={killed.returncode}\n"
        f"{killed.stdout}{killed.stderr}"
    )
    resumed = run_driver(store, resume=True, workers=2)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == baseline
    # Matching digests are not enough: the resumed *store* must also have
    # converged (torn tails healed, every recomputed record durably
    # committed), or the next resume would silently recompute again.
    verify = run_repro("campaign", "verify", str(store))
    assert verify.returncode == 0, verify.stdout + verify.stderr


@pytest.fixture(scope="module")
def faulted_baseline(tmp_path_factory):
    """Digest of an uninterrupted ``--faults`` run: profiled cells
    (metrics.jsonl populated) plus one deterministically-failing mix
    (failures.jsonl populated)."""
    store = tmp_path_factory.mktemp("pristine-faults")
    proc = run_driver(store, faults=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("metrics.jsonl", "failures.jsonl"):
        assert (store / name).exists(), f"--faults run never wrote {name}"
    return proc.stdout.strip().splitlines()[-1]


#: Crash points against the supervision stores: per-cell metrics
#: snapshots and the give-up failure records. As above, hit #1 is the
#: store header and #2 the first real record.
SUPERVISION_KILL_SPECS = [
    "kill:before_append@metrics.jsonl#1",
    "kill:mid_record@metrics.jsonl#2",
    "kill:after_append@metrics.jsonl#1",
    "kill:before_append@failures.jsonl#1",
    "kill:mid_record@failures.jsonl#2",
    "kill:after_append@failures.jsonl#1",
]


@pytest.mark.parametrize("spec", SUPERVISION_KILL_SPECS)
def test_resume_after_sigkill_in_supervision_stores(
    tmp_path, faulted_baseline, spec
):
    store = tmp_path / "store"
    killed = run_driver(store, chaos=spec, faults=True)
    assert killed.returncode == -signal.SIGKILL, (
        f"{spec}: expected SIGKILL, got rc={killed.returncode}\n"
        f"{killed.stdout}{killed.stderr}"
    )
    resumed = run_driver(store, resume=True, faults=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == faulted_baseline
    # Every store — including the one the kill tore — must verify clean.
    verify = run_repro("campaign", "verify", str(store))
    assert verify.returncode == 0, verify.stdout + verify.stderr


@pytest.mark.parametrize(
    "spec",
    [
        "io:enospc@runs.jsonl:1.0",
        "io:partial_write@runs.jsonl:1.0",
    ],
)
def test_resume_after_io_fault_is_bit_identical(tmp_path, baseline, spec):
    store = tmp_path / "store"
    faulted = run_driver(store, chaos=spec)
    # The injected OSError aborts the campaign (no keep_going) — a
    # Python death, not a SIGKILL.
    assert faulted.returncode == 1, faulted.stdout + faulted.stderr
    assert "injected" in faulted.stderr
    resumed = run_driver(store, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == baseline
    verify = run_repro("campaign", "verify", str(store))
    assert verify.returncode == 0, verify.stdout + verify.stderr


def test_verify_repair_cycle_after_torn_write(tmp_path, baseline):
    store = tmp_path / "store"
    killed = run_driver(store, chaos="kill:mid_record@runs.jsonl#2")
    assert killed.returncode == -signal.SIGKILL

    verify = run_repro("campaign", "verify", str(store))
    assert verify.returncode == 1, verify.stdout + verify.stderr
    assert "DAMAGED" in verify.stdout

    repair = run_repro("campaign", "repair", str(store))
    assert repair.returncode == 0, repair.stdout + repair.stderr

    verify_again = run_repro("campaign", "verify", str(store))
    assert verify_again.returncode == 0, verify_again.stdout
    assert "intact" in verify_again.stdout

    # The repaired store still resumes to the bit-identical baseline.
    resumed = run_driver(store, resume=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == baseline


def test_compact_drops_superseded_checkpoints(tmp_path, faulted_baseline):
    store = tmp_path / "store"
    # Two --faults runs without --resume. A recomputed cell equal to its
    # stored record is not appended again, but the supervisor's metrics
    # snapshot is re-put under its one key whenever its counters change,
    # so metrics.jsonl holds superseded generations of that key.
    assert run_driver(store, faults=True).returncode == 0
    assert run_driver(store, faults=True).returncode == 0

    compact = run_repro("campaign", "compact", str(store))
    assert compact.returncode == 0, compact.stdout + compact.stderr
    [metrics_line] = [
        line for line in compact.stdout.splitlines()
        if line.startswith("metrics.jsonl")
    ]
    assert "stale dropped" in metrics_line

    runs = json.loads(
        "["
        + ",".join((store / "runs.jsonl").read_text().strip().splitlines())
        + "]"
    )
    keys = [r["payload"]["key"] for r in runs if "payload" in r]
    assert len(keys) == len(set(keys)) == 2

    resumed = run_driver(store, resume=True, faults=True)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip().splitlines()[-1] == faulted_baseline


@pytest.mark.parametrize("point", ["before_replace", "after_replace"])
@pytest.mark.parametrize("verb", ["repair", "compact"])
def test_store_rewrite_survives_sigkill_at_replace(tmp_path, verb, point):
    # repair and compact rewrite a damaged store through
    # atomic_write_text: a kill before the replace leaves the old bytes,
    # a kill after it the repaired file, and a re-run finishes the job.
    runs = tmp_path / "runs.jsonl"
    log = ChecksummedLog(str(runs))
    for value in range(3):
        log.append({"key": f"k{value}", "value": value})
    lines = runs.read_text().splitlines()
    lines[2] = lines[2].replace('"value": 1', '"value": 99')  # sha mismatch
    runs.write_text("\n".join(lines) + "\n")
    damaged = runs.read_bytes()

    killed = run_repro(
        "campaign", verb, str(tmp_path), chaos=f"kill:{point}@runs.jsonl"
    )
    assert killed.returncode == -signal.SIGKILL, (
        f"{verb} at {point}: expected SIGKILL, got rc={killed.returncode}\n"
        f"{killed.stdout}{killed.stderr}"
    )
    if point == "before_replace":
        assert runs.read_bytes() == damaged
        assert verify_log(str(runs)).damaged
    else:
        assert not verify_log(str(runs)).damaged

    rerun = run_repro("campaign", verb, str(tmp_path))
    assert rerun.returncode == 0, rerun.stdout + rerun.stderr
    verify = run_repro("campaign", "verify", str(tmp_path))
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert read_log(str(runs))[0] == [
        {"key": "k0", "value": 0},
        {"key": "k2", "value": 2},
    ]
