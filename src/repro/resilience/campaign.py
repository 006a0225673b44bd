"""Checkpoint/resume for experiment campaigns.

A campaign is a sweep of per-mix runs (one experiment driver invocation).
Every completed run is persisted as one JSON line under
``results/.campaign/<experiment>/`` keyed by (experiment, variant, mix
name, mix seed, config fingerprint, quanta), so an interrupted campaign
resumes without recomputing finished mixes — resumed results deserialize
to the exact values the original run produced. The (expensive) alone runs
are persisted the same way, as the prefixes the runs read, and shared
across resumes: a run of a later invocation that reads further than a
stored prefix re-simulates it.

Store layout::

    results/.campaign/<experiment>/
        runs.jsonl       completed per-mix results, one JSON object per line
        alone.jsonl      alone-run prefixes (the longest is the last)
        failures.jsonl   captured RunFailure records (replayable)
        metrics.jsonl    each profiled cell's per-quantum trace events
                         (``--profile``) and the supervision counters
        divergence.jsonl fidelity cross-validation reports (analytic vs
                         event oracle — see repro.analytic.crossval)

All files use the checksummed store format v2 of
:mod:`repro.durability.store`: a version header plus per-record sha256
and monotonic sequence numbers, appended atomically (single write →
flush → fsync). A crash tears at most the trailing line, which load
recovers by skipping; checksum-mismatched records are skipped too and
``repro campaign verify|repair`` reports/quarantines them. Legacy (v1)
plain-JSONL stores load transparently and upgrade on repair. Runs, alone
prefixes and metrics are keyed logs
(:class:`~repro.durability.store.KeyedLog`): the last record under a key
wins, and a record equal to it is not appended again, so re-running a
finished cell leaves the store as it was. Failures and divergence
reports are append-only histories.

Retry supervision (``retry_policy``): failed cells are re-attempted
under a :class:`~repro.durability.retry.RetryPolicy` with a per-cell
circuit breaker; a cell the supervisor gives up on leaves one
:class:`~repro.resilience.faults.RunFailure` that says how many attempts
it had and why retrying stopped.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.parallel import CellSpec
    from repro.telemetry.spec import TelemetrySpec

from repro.config import SystemConfig
from repro.durability.retry import CircuitBreaker, RetryPolicy
from repro.durability.store import ChecksummedLog, KeyedLog, read_payloads
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    QuantumRecord,
    RunResult,
)
from repro.resilience.faults import (
    RunFailure,
    config_fingerprint,
    failure_table,
    stable_hash,
)
from repro.workloads.mixes import WorkloadMix
from repro.workloads.synthetic import AppSpec


def mix_to_json(mix: WorkloadMix) -> dict:
    return {
        "name": mix.name,
        "seed": mix.seed,
        "specs": [dataclasses.asdict(spec) for spec in mix.specs],
    }


def mix_from_json(data: dict) -> WorkloadMix:
    return WorkloadMix(
        name=data["name"],
        specs=tuple(AppSpec(**spec) for spec in data["specs"]),
        seed=data["seed"],
    )


def result_to_json(result: RunResult) -> dict:
    return {
        # Which execution tier computed the cell. Purely informational
        # (the cell key already folds the tier in via the config
        # fingerprint when non-default); old records without it read back
        # fine because result_from_json rebuilds config from its argument.
        "engine": result.config.engine,
        "mix": mix_to_json(result.mix),
        "records": [
            {
                "index": r.index,
                "instructions": r.instructions,
                "shared_ipc": r.shared_ipc,
                "actual_slowdowns": r.actual_slowdowns,
                "estimates": r.estimates,
                "confidence": r.confidence,
                "degraded": r.degraded,
            }
            for r in result.records
        ],
    }


def result_from_json(data: dict, config: SystemConfig) -> RunResult:
    records = [
        QuantumRecord(
            index=r["index"],
            instructions=list(r["instructions"]),
            shared_ipc=list(r["shared_ipc"]),
            actual_slowdowns=list(r["actual_slowdowns"]),
            estimates={k: list(v) for k, v in r["estimates"].items()},
            # .get(): records persisted before telemetry confidence existed
            # load as fully-confident runs.
            confidence={k: list(v) for k, v in r.get("confidence", {}).items()},
            degraded={k: list(v) for k, v in r.get("degraded", {}).items()},
        )
        for r in data["records"]
    ]
    mix = mix_from_json(data["mix"])
    config = dataclasses.replace(config, num_cores=mix.num_cores)
    return RunResult(mix=mix, config=config, records=records)


@dataclasses.dataclass
class CellTiming:
    """Wall-clock accounting for one profiled campaign cell."""

    mix: str
    variant: str
    quanta: int
    wall_s: float  # the cell's attempt, alone runs included
    events: int  # shared-run engine events

    @property
    def events_per_s(self) -> float:
        """Shared-run engine events per wall second for this cell."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


class CampaignStore:
    """Checksummed JSONL store for one campaign's state: keyed logs for
    runs, alone prefixes and metrics, append-only logs for failures and
    divergence reports."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._runs = KeyedLog(os.path.join(root, "runs.jsonl"))
        self._alone = KeyedLog(os.path.join(root, "alone.jsonl"))
        self._metrics = KeyedLog(os.path.join(root, "metrics.jsonl"))
        self._failures = ChecksummedLog(os.path.join(root, "failures.jsonl"))
        self._divergence = ChecksummedLog(
            os.path.join(root, "divergence.jsonl")
        )

    # -- per-mix results ------------------------------------------------
    def get_run(self, key: str) -> Optional[dict]:
        record = self._runs.get(key)
        return None if record is None else record.get("result")

    def put_run(self, key: str, result: dict) -> None:
        self._runs.put(key, {"result": result})

    def __len__(self) -> int:
        return len(self._runs)

    # -- alone profiles -------------------------------------------------
    def get_alone(self, key: str) -> Optional[AloneProfile]:
        record = self._alone.get(key)
        if record is None:
            return None
        return AloneProfile(record["interval"], list(record["instructions"]))

    def put_alone(self, key: str, profile: AloneProfile) -> None:
        self._alone.put(key, {
            "interval": profile.checkpoint_interval,
            # A copy: a live leg's profile keeps growing after it is put.
            "instructions": list(profile.instructions),
        })

    # -- metrics: per-quantum trace events -------------------------------
    def put_metrics(self, key: str, records: List[dict]) -> None:
        """Persist a profiled run's per-quantum trace events
        (:meth:`~repro.obs.events.TraceEvent.to_json` records) next to its
        checkpoint (same ``key`` as :meth:`put_run`); under
        ``__supervisor__``, the campaign's supervision counters."""
        self._metrics.put(key, {"records": records})

    def get_metrics(self, key: str) -> Optional[List[dict]]:
        """The last records persisted under ``key``, if any."""
        record = self._metrics.get(key)
        return None if record is None else list(record["records"])

    # -- failures -------------------------------------------------------
    def append_failure(self, failure: RunFailure) -> None:
        self._failures.append(failure.to_json())

    def load_failures(self) -> List[RunFailure]:
        return [
            RunFailure.from_json(r)
            for r in read_payloads(self._failures.path)
            if isinstance(r, dict)
        ]

    # -- fidelity divergence reports ------------------------------------
    def put_divergence(self, record: dict) -> None:
        """Append one fidelity cross-validation report (see
        :mod:`repro.analytic.crossval`). The payload carries no wall
        clocks, so equal seeds append byte-equal records."""
        self._divergence.append(record)

    def load_divergence(self) -> List[dict]:
        """Every divergence report recorded for this campaign."""
        return [
            r for r in read_payloads(self._divergence.path)
            if isinstance(r, dict)
        ]


class PersistentAloneRunCache(AloneRunCache):
    """An :class:`AloneRunCache` over a campaign store: prefixes it does
    not hold are read from the store, and longer ones written back."""

    def __init__(self, store: CampaignStore) -> None:
        super().__init__()
        self._store = store

    def _load(self, key: tuple) -> Optional[AloneProfile]:
        return self._store.get_alone(stable_hash(key))

    def get(
        self,
        mix: WorkloadMix,
        core: int,
        config: SystemConfig,
        cycles: int,
        instruction: float = math.inf,
    ) -> AloneProfile:
        key, profile, grew = self._lookup(mix, core, config, cycles, instruction)
        if grew:
            self._store.put_alone(stable_hash(key), profile)
        return profile

    def keep(self, key: tuple, profile: AloneProfile) -> bool:
        kept = super().keep(key, profile)
        if kept:
            self._store.put_alone(stable_hash(key), profile)
        return kept


class Campaign:
    """Fault isolation + checkpoint/resume around a sweep of per-mix runs.

    Experiment drivers hand it their cells (:meth:`run_cells`) instead of
    calling ``run_workload``; the campaign then

    * returns the persisted result without simulating when ``resume`` is
      set and the (mix, config, quanta) cell is already in the store;
    * captures any per-mix exception as a replayable :class:`RunFailure`
      and keeps going when ``keep_going`` is set (the failed mix yields
      ``None``);
    * threads ``check_invariants`` / ``wall_clock_budget_s`` into every
      run it launches;
    * persists each freshly computed result before moving on;
    * retries failed runs under ``retry_policy`` (default: one attempt,
      i.e. no retries) with a per-cell circuit breaker — see
      :mod:`repro.durability.retry`; a cell the supervisor gives up on
      leaves its final failure, with its attempts and give-up reason;
    * with ``profile`` set, times every computed cell (wall seconds,
      engine events — see :meth:`timing_table`) and persists its
      per-quantum QUANTUM, MODEL, GUARD and POLICY trace events into the
      store's ``metrics.jsonl`` next to the run checkpoint. Profiling is
      passive: the simulated results are bit-identical.

    With ``store_dir=None`` the campaign keeps fault isolation but skips
    persistence (useful for tests and ad-hoc sweeps).
    """

    def __init__(
        self,
        experiment: str,
        store_dir: Optional[str] = None,
        *,
        resume: bool = False,
        keep_going: bool = False,
        check_invariants: bool = False,
        wall_clock_budget_s: Optional[float] = None,
        profile: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.experiment = experiment
        self.store = CampaignStore(store_dir) if store_dir else None
        self.resume = resume
        self.keep_going = keep_going
        self.check_invariants = check_invariants
        self.wall_clock_budget_s = wall_clock_budget_s
        self.profile = profile
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = CircuitBreaker()
        self.failures: List[RunFailure] = []
        self.computed = 0
        self.resumed = 0
        #: extra attempts spent on retries (0 when nothing was retried).
        self.retry_attempts = 0
        #: cells that failed at least once and then succeeded on retry.
        self.retried_cells = 0
        self.cell_timings: List[CellTiming] = []
        #: busy-fraction of the worker pool during the last parallel
        #: fan-out (set by :func:`repro.parallel.run_cells` when profiling).
        self.pool_utilization: Optional[float] = None
        self._alone_cache: Optional[AloneRunCache] = None

    # ------------------------------------------------------------------
    def run_key(
        self,
        mix: WorkloadMix,
        config: SystemConfig,
        quanta: int,
        variant: str = "",
        *,
        telemetry: Optional["TelemetrySpec"] = None,
    ) -> str:
        key: tuple = (
            self.experiment,
            variant,
            mix.name,
            mix.seed,
            config_fingerprint(config),
            quanta,
        )
        if telemetry is not None:
            # Appended (rather than always present) so existing stores
            # keyed before telemetry faults existed still resume.
            key += (telemetry,)
        return stable_hash(key)

    def alone_cache(self) -> AloneRunCache:
        """The campaign's alone-run cache (persistent when storing).

        Memoised: every sweep in the campaign shares one cache, so its
        hit/miss statistics cover the whole campaign and repeated surveys
        reuse each other's in-memory profiles."""
        if self._alone_cache is None:
            if self.store is not None:
                self._alone_cache = PersistentAloneRunCache(self.store)
            else:
                self._alone_cache = AloneRunCache()
        return self._alone_cache

    def run_cells(
        self,
        cells: Sequence["CellSpec"],
        *,
        workers: int = 1,
    ) -> List[Optional[RunResult]]:
        """Run a batch of independent cells, fanning out across ``workers``
        processes (see :mod:`repro.parallel`); results are identical at
        any worker count."""
        from repro import parallel

        return parallel.run_cells(self, cells, workers=workers)

    def run_mix(
        self,
        mix: WorkloadMix,
        config: SystemConfig,
        *,
        quanta: int = 1,
        variant: str = "",
        telemetry: Optional["TelemetrySpec"] = None,
    ) -> Optional[RunResult]:
        """Run one mix on the bare platform under the campaign's
        fault/checkpoint discipline: a one-cell :meth:`run_cells` batch,
        so a machine under test comes from a
        :class:`~repro.parallel.CellSpec` recipe. Returns the
        :class:`RunResult`, or ``None`` when the run failed and
        ``keep_going`` captured it."""
        from repro import parallel

        cell = parallel.CellSpec(
            mix=mix, config=config, quanta=quanta, variant=variant,
            telemetry=telemetry,
        )
        return parallel.run_cells(self, [cell])[0]

    # -- retry supervision (the settle step of repro.parallel) ----------
    def may_retry(
        self, cell_fingerprint: str, attempts: int, elapsed_s: float
    ) -> bool:
        """Whether a failed cell gets another attempt: attempts left,
        circuit closed, and wall-clock budget not exhausted."""
        return (
            attempts < self.retry_policy.max_attempts
            and self.breaker.allows(cell_fingerprint)
            and self.retry_policy.within_budget(elapsed_s)
        )

    def note_retry(self, cell_fingerprint: str) -> None:
        """Account one retry attempt."""
        self.retry_attempts += 1
        self._snap_supervisor()

    def note_retry_success(self, cell_fingerprint: str) -> None:
        """A cell that had failed succeeded on retry."""
        self.retried_cells += 1
        self.breaker.record_success(cell_fingerprint)
        self._snap_supervisor()

    def record_give_up(self, failure: RunFailure, elapsed_s: float) -> None:
        """Record a cell's final failure; when the policy could have
        retried, first set why retrying stopped (``failure.reason``)."""
        if self.retry_policy.supervised:
            if not self.breaker.allows(failure.fingerprint()):
                failure.reason = "circuit_open"
            elif not self.retry_policy.within_budget(elapsed_s):
                failure.reason = "budget_exhausted"
            else:
                failure.reason = "attempts_exhausted"
        self.failures.append(failure)
        if self.store is not None:
            self.store.append_failure(failure)
        if failure.reason is not None:
            self._snap_supervisor()

    def _degraded_cells(self) -> int:
        """Cells given up on with a reason: the policy could have retried."""
        return sum(1 for f in self.failures if f.reason is not None)

    def _snap_supervisor(self) -> None:
        """Write the supervision counters to the store's metrics.jsonl
        (last record wins under the ``__supervisor__`` key)."""
        if self.store is not None:
            self.store.put_metrics("__supervisor__", [{
                "supervisor.degraded_cells": self._degraded_cells(),
                "supervisor.retried_cells": self.retried_cells,
                "supervisor.retry_attempts": self.retry_attempts,
            }])

    # ------------------------------------------------------------------
    def record_timing(
        self, mix: str, variant: str, quanta: int, wall_s: float, events: int
    ) -> None:
        """Append one profiled cell's wall-clock accounting."""
        self.cell_timings.append(
            CellTiming(
                mix=mix, variant=variant, quanta=quanta,
                wall_s=wall_s, events=events,
            )
        )

    def timing_table(self) -> str:
        """Render the per-cell wall-clock timings (``--profile`` output)."""
        if not self.cell_timings:
            return "no profiled cells"
        lines = [
            f"{'mix':24s} {'variant':16s} {'quanta':>6s} "
            f"{'wall_s':>8s} {'events':>10s} {'events/s':>10s}"
        ]
        for t in self.cell_timings:
            lines.append(
                f"{t.mix:24s} {t.variant:16s} {t.quanta:>6d} "
                f"{t.wall_s:>8.3f} {t.events:>10d} {t.events_per_s:>10,.0f}"
            )
        total_wall = sum(t.wall_s for t in self.cell_timings)
        total_events = sum(t.events for t in self.cell_timings)
        lines.append(
            f"{'total':24s} {'':16s} {'':>6s} "
            f"{total_wall:>8.3f} {total_events:>10d} "
            f"{total_events / total_wall if total_wall > 0 else 0.0:>10,.0f}"
        )
        if self.pool_utilization is not None:
            lines.append(f"pool-worker utilization: {self.pool_utilization:.0%}")
        return "\n".join(lines)

    def failure_summary(self) -> str:
        return failure_table(self.failures)

    def summary(self) -> str:
        parts = [f"{self.computed} computed"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.retried_cells:
            parts.append(
                f"{self.retried_cells} recovered by retry "
                f"({self.retry_attempts} retry attempts)"
            )
        elif self.retry_attempts:
            parts.append(f"{self.retry_attempts} retry attempts")
        degraded = self._degraded_cells()
        if degraded:
            parts.append(f"{degraded} DEGRADED")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        line = f"campaign {self.experiment}: " + ", ".join(parts)
        cache = self._alone_cache
        if cache is not None and (cache.hits or cache.misses or cache.store_hits):
            line += f"; {cache.summary()}"
        return line


__all__ = [
    "Campaign",
    "CampaignStore",
    "CellTiming",
    "PersistentAloneRunCache",
    "mix_from_json",
    "mix_to_json",
    "result_from_json",
    "result_to_json",
]
