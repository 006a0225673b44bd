"""Parallel fan-out of independent campaign cells across worker processes.

A *cell* is one (mix, config, quanta, variant) simulation together with the
recipes for its slowdown models and memory scheduler. Cells of a sweep are
independent of each other, so a campaign can fan them out across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

1. **Resume** — cells already in the campaign's checkpoint store are
   deserialized in the parent; only the rest are dispatched.
2. **Alone profiles** — the expensive alone-run profiles the cells depend
   on are deduplicated by cache key (one application may appear in many
   mixes), computed once each in the pool, persisted through the campaign's
   alone-run cache, and shipped to the cell workers pre-seeded.
3. **Cells** — each worker simulates one full cell and returns a picklable
   payload: the :class:`~repro.harness.runner.RunResult` on success, or the
   exception's type/message/traceback/diagnosis on failure. The parent
   merges results into the checkpoint store **in submission order**, so a
   parallel sweep commits the same records, and surveys accumulate floats
   in the same order, as a serial one — ``workers=N`` is bit-identical to
   ``workers=1``.

Failure discipline matches :meth:`Campaign.run_mix`: a failing cell becomes
a replayable :class:`~repro.resilience.faults.RunFailure`; with
``keep_going`` the sweep continues (the cell yields ``None``), otherwise
:class:`WorkerRunError` re-raises it in the parent with the worker's
traceback. A worker that dies outright (the pool breaks) is recorded as a
``WorkerCrash`` failure, the pool is rebuilt, and the surviving cells are
resubmitted.

Failed cells are then *retried* under the campaign's
:class:`~repro.durability.retry.RetryPolicy`: each fan-out round is
followed by a round of the cells whose failures the supervisor still
considers worth attempting (attempts left, circuit breaker closed,
per-cell wall-clock budget not exhausted), with deterministic backoff
between rounds. A transient ``WorkerCrash`` typically succeeds on the
next round; a deterministic failure repeats, trips the breaker, and is
recorded (failure + :class:`~repro.durability.retry.DegradedCell`)
without burning the remaining attempt budget. The default policy
(``max_attempts=1``) runs exactly one round — the pre-supervision
behaviour. Retried cells commit in a later round than their neighbours,
so *store append order* can differ from a serial sweep; the store is
keyed last-record-wins, and returned results stay bit-identical.

Model/scheduler recipes must be **module-level callables** (pickled by
reference): ``model_builder(*model_builder_args)`` must return the
``{name: factory}`` dict ``run_workload`` expects, and
``scheduler_builder(*scheduler_builder_args)`` a Scheduler instance.
"""

from __future__ import annotations

import dataclasses
import time
import traceback as _traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.analytic.runner import resolve_fidelity, run_analytic
from repro.config import SystemConfig
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    ModelFactory,
    RunProfile,
    RunResult,
    run_alone,
    run_workload,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.campaign import result_from_json, result_to_json
from repro.resilience.faults import RunFailure, config_fingerprint
from repro.telemetry.spec import TelemetrySpec
from repro.workloads.mixes import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign

#: An alone-run cache key (see AloneRunCache._key) and one worker task.
ProfileKey = Tuple[Any, ...]
ProfileTask = Tuple[WorkloadMix, int, SystemConfig, int]


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of campaign work (a single shared run)."""

    mix: WorkloadMix
    config: SystemConfig
    quanta: int = 1
    variant: str = ""
    model_builder: Optional[Callable[..., Dict[str, ModelFactory]]] = None
    model_builder_args: Tuple[Any, ...] = ()
    scheduler_builder: Optional[Callable[..., Any]] = None
    scheduler_builder_args: Tuple[Any, ...] = ()
    telemetry: Optional[TelemetrySpec] = None
    # Fidelity tier ("analytical" | "event", see docs/fidelity.md). Empty
    # means unset: ``config.engine`` governs, so pre-fidelity call sites
    # are unchanged.
    fidelity: str = ""


class WorkerRunError(RuntimeError):
    """A cell failed in a worker process while ``keep_going`` was off."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(
            f"{failure.error_type} in worker for mix '{failure.mix_name}': "
            f"{failure.message}\n{failure.traceback}"
        )
        self.failure = failure


def build_model_factories(spec: CellSpec) -> Optional[Dict[str, ModelFactory]]:
    if spec.model_builder is None:
        return None
    return spec.model_builder(*spec.model_builder_args)


def build_scheduler_factory(spec: CellSpec) -> Optional[Callable[[], Any]]:
    builder = spec.scheduler_builder
    if builder is None:
        return None
    args = spec.scheduler_builder_args
    return lambda: builder(*args)


# ----------------------------------------------------------------------
# Worker-side entry points (module-level so they pickle by reference).

def _error_payload(exc: BaseException) -> Dict[str, Any]:
    diagnosis = getattr(exc, "diagnosis", None)
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "diagnosis": dict(diagnosis) if isinstance(diagnosis, dict) else {},
    }


def _profile_worker(task: ProfileTask) -> Dict[str, Any]:
    """Compute one alone-run profile: (mix, core, config, cycles)."""
    mix, core, config, cycles = task
    try:
        profile = run_alone(mix.trace_for_core(core), config, cycles)
        return {"ok": True, "profile": profile}
    except Exception as exc:  # noqa: BLE001 - isolated and reported
        return {"ok": False, **_error_payload(exc)}


@dataclass(frozen=True)
class _CellTask:
    """Everything a worker needs to run one cell, fully picklable."""

    spec: CellSpec
    profiles: Tuple[Tuple[ProfileKey, AloneProfile], ...]
    check_invariants: bool
    wall_clock_budget_s: Optional[float]
    profile: bool = False


def _cell_worker(task: _CellTask) -> Dict[str, Any]:
    spec = task.spec
    try:
        cache = AloneRunCache()
        cache.absorb(task.profiles)
        captured: List[RunProfile] = []
        run_metrics = MetricsRegistry() if task.profile else None
        if spec.config.engine == "analytic":
            result = run_analytic(
                spec.mix,
                spec.config,
                quanta=spec.quanta,
                profile_sink=captured.append if task.profile else None,
            )
        else:
            result = run_workload(
                spec.mix,
                spec.config,
                model_factories=build_model_factories(spec),
                scheduler_factory=build_scheduler_factory(spec),
                quanta=spec.quanta,
                alone_cache=cache,
                check_invariants=task.check_invariants,
                wall_clock_budget_s=task.wall_clock_budget_s,
                telemetry=spec.telemetry,
                profile_sink=captured.append if task.profile else None,
                run_metrics=run_metrics,
            )
        payload: Dict[str, Any] = {"ok": True, "result": result}
        if captured:
            payload["wall_s"] = captured[0].wall_time_s
            payload["events"] = captured[0].events_executed
        if run_metrics is not None:
            # Snapshots are plain dicts: picklable as-is.
            payload["metrics"] = run_metrics.snapshots
        return payload
    except Exception as exc:  # noqa: BLE001 - isolated and reported
        return {"ok": False, **_error_payload(exc)}


# ----------------------------------------------------------------------
# Parent-side orchestration.

def _run_tasks(
    fn: Callable[[Any], Any], payloads: Sequence[Any], workers: int
) -> List[Tuple[str, Any]]:
    """Run ``payloads`` through a process pool, surviving hard crashes.

    Returns one ``("ok", value)`` or ``("crash", message)`` per payload, in
    order. When a worker dies outright the pool breaks and every
    unfinished future raises; the first one (in submission order) is
    attributed as the crash, the pool is rebuilt, and the rest are
    resubmitted. Each rebuild permanently consumes at least one payload,
    so a poisoned payload cannot wedge the sweep. Attribution is
    best-effort: with several payloads in flight the recorded cell may be
    an innocent neighbour of the one that actually died.
    """
    outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    while pending:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = [(i, pool.submit(fn, payloads[i])) for i in pending]
            crash_attributed = False
            retry: List[int] = []
            for i, future in futures:
                try:
                    outcomes[i] = ("ok", future.result())
                except (BrokenExecutor, EOFError, OSError) as exc:
                    if crash_attributed:
                        retry.append(i)
                    else:
                        crash_attributed = True
                        outcomes[i] = (
                            "crash",
                            "worker process died before returning a result "
                            f"({type(exc).__name__}: {exc})",
                        )
        pending = retry
    # Every index was either completed or attributed as a crash above.
    return cast(List[Tuple[str, Any]], outcomes)


def _failure_from_payload(
    campaign: "Campaign", cell: CellSpec, payload: Dict[str, Any]
) -> RunFailure:
    return RunFailure(
        experiment=campaign.experiment,
        variant=cell.variant,
        mix_name=cell.mix.name,
        mix_seed=cell.mix.seed,
        specs=[dataclasses.asdict(spec) for spec in cell.mix.specs],
        config_fingerprint=config_fingerprint(cell.config),
        quanta=cell.quanta,
        error_type=payload["error_type"],
        message=payload["message"],
        traceback=payload.get("traceback", ""),
        diagnosis=payload.get("diagnosis") or {},
        telemetry=cell.telemetry.to_json() if cell.telemetry is not None else None,
    )


def _cell_fingerprint(campaign: "Campaign", cell: CellSpec) -> str:
    """The cell-identity fingerprint the circuit breaker keys on.

    Matches :meth:`RunFailure.fingerprint` — the failing *cell*, not the
    failing error — so parent-side success bookkeeping and worker-side
    failure records land on the same breaker entry.
    """
    return _failure_from_payload(
        campaign, cell, {"error_type": "", "message": ""}
    ).fingerprint()


def _record_failure(
    campaign: "Campaign",
    cell: CellSpec,
    payload: Dict[str, Any],
    *,
    attempts: int = 1,
    elapsed_s: float = 0.0,
) -> None:
    """Final give-up on a cell: failure record, degradation, maybe raise."""
    failure = _failure_from_payload(campaign, cell, payload)
    campaign.record_give_up(failure, attempts, elapsed_s)
    if not campaign.keep_going:
        raise WorkerRunError(failure)


def _alone_cycles(cell: CellSpec) -> int:
    # Must match run_workload: profiles cover one quantum beyond the run.
    return (cell.quanta + 1) * cell.config.quantum_cycles


def _with_fidelity(cell: CellSpec) -> CellSpec:
    """``cell`` with its declared fidelity folded into ``config.engine``."""
    config = resolve_fidelity(cell.config, cell.fidelity)
    if config is cell.config:
        return cell
    return dataclasses.replace(cell, config=config)


def run_cells(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
) -> List[Optional[RunResult]]:
    """Run ``cells`` under ``campaign``'s fault/checkpoint discipline.

    Returns one entry per cell, in order: the :class:`RunResult`, or
    ``None`` for cells whose failure was captured by ``keep_going``.
    ``workers=1`` delegates to :meth:`Campaign.run_mix` serially; results
    are identical either way.

    Cells declaring a :attr:`CellSpec.fidelity` tier have it folded into
    ``config.engine`` up front, so store keys, resume and dispatch all see
    the resolved engine. Analytic cells skip phase 1 entirely — the alone
    fixed point is part of the closed form (see :mod:`repro.analytic`).
    """
    cells = [_with_fidelity(cell) for cell in cells]
    if workers <= 1:
        cache = campaign.alone_cache()
        return [
            campaign.run_mix(
                cell.mix,
                cell.config,
                quanta=cell.quanta,
                variant=cell.variant,
                model_factories=build_model_factories(cell),
                scheduler_factory=build_scheduler_factory(cell),
                alone_cache=cache,
                telemetry=cell.telemetry,
            )
            for cell in cells
        ]

    results: List[Optional[RunResult]] = [None] * len(cells)
    keys = [
        campaign.run_key(
            cell.mix, cell.config, cell.quanta, cell.variant,
            telemetry=cell.telemetry,
        )
        for cell in cells
    ]
    pending: List[int] = []
    for i, cell in enumerate(cells):
        if campaign.resume and campaign.store is not None:
            cached = campaign.store.get_run(keys[i])
            if cached is not None:
                results[i] = result_from_json(cached, cell.config)
                campaign.resumed += 1
                continue
        pending.append(i)
    if not pending:
        return results

    # Phase 1: dedup the alone profiles the pending cells need, reuse what
    # the campaign's cache already holds, compute the rest in the pool.
    cache = campaign.alone_cache()
    needed: Dict[ProfileKey, ProfileTask] = {}
    cell_keys: Dict[int, List[ProfileKey]] = {}
    for i in pending:
        cell = cells[i]
        cell_keys[i] = []
        if cell.config.engine == "analytic":
            continue  # closed form: no alone profiles to collect
        cycles = _alone_cycles(cell)
        for core in range(cell.mix.num_cores):
            key = AloneRunCache._key(cell.mix, core, cell.config, cycles)
            cell_keys[i].append(key)
            needed.setdefault(key, (cell.mix, core, cell.config, cycles))

    have: Dict[ProfileKey, AloneProfile] = {}
    missing: List[ProfileKey] = []
    for key, task in needed.items():
        store_hits_before = cache.store_hits
        profile = cache.peek(*task)
        if profile is not None:
            have[key] = profile
            if cache.store_hits == store_hits_before:
                cache.hits += 1  # persistent peek counts store hits itself
        else:
            missing.append(key)
    profile_errors: Dict[ProfileKey, Dict[str, Any]] = {}
    if missing:
        outcomes = _run_tasks(
            _profile_worker, [needed[key] for key in missing], workers
        )
        for key, (kind, value) in zip(missing, outcomes):
            if kind == "crash":
                profile_errors[key] = {
                    "error_type": "WorkerCrash",
                    "message": value,
                }
            elif value["ok"]:
                have[key] = value["profile"]
                cache.misses += 1
                cache.seed_profile(*needed[key], value["profile"])
            else:
                profile_errors[key] = value

    # Phase 2: fan the runnable cells out; cells depending on a failed
    # profile fail immediately with that profile's error.
    runnable: List[int] = []
    for i in pending:
        bad = next((k for k in cell_keys[i] if k in profile_errors), None)
        if bad is not None:
            _record_failure(campaign, cells[i], profile_errors[bad])
        else:
            runnable.append(i)
    def _task_for(i: int) -> _CellTask:
        return _CellTask(
            spec=cells[i],
            profiles=tuple((key, have[key]) for key in cell_keys[i]),
            check_invariants=campaign.check_invariants,
            wall_clock_budget_s=campaign.wall_clock_budget_s,
            profile=campaign.profile,
        )

    fanout_start = perf_counter() if campaign.profile else 0.0
    busy_s = 0.0
    fanout_elapsed = 0.0
    attempts: Dict[int, int] = {i: 0 for i in runnable}
    dispatched: Dict[int, float] = {}
    active = list(runnable)
    while active:
        now = time.monotonic()
        for i in active:
            dispatched.setdefault(i, now)
        outcomes = _run_tasks(
            _cell_worker, [_task_for(i) for i in active], workers
        )
        next_round: List[int] = []
        backoff = 0.0
        for i, (kind, value) in zip(active, outcomes):
            attempts[i] += 1
            if kind == "crash":
                payload: Dict[str, Any] = {
                    "error_type": "WorkerCrash", "message": value,
                }
            elif value["ok"]:
                result = value["result"]
                if campaign.store is not None:
                    campaign.store.put_run(keys[i], result_to_json(result))
                campaign.computed += 1
                results[i] = result
                if attempts[i] > 1:
                    campaign.note_retry_success(
                        _cell_fingerprint(campaign, cells[i])
                    )
                if "wall_s" in value:
                    busy_s += value["wall_s"]
                    campaign.record_timing(
                        cells[i].mix.name, cells[i].variant, cells[i].quanta,
                        value["wall_s"], value.get("events", 0),
                    )
                if campaign.store is not None and value.get("metrics"):
                    campaign.store.put_metrics(keys[i], value["metrics"])
                continue
            else:
                payload = value
            failure = _failure_from_payload(campaign, cells[i], payload)
            fingerprint = failure.fingerprint()
            campaign.breaker.record_failure(
                fingerprint, failure.error_type, failure.message
            )
            elapsed = time.monotonic() - dispatched[i]
            if campaign.may_retry(fingerprint, attempts[i], elapsed):
                campaign.note_retry(fingerprint)
                backoff = max(
                    backoff,
                    campaign.retry_policy.delay_s(attempts[i], fingerprint),
                )
                next_round.append(i)
            else:
                _record_failure(
                    campaign, cells[i], payload,
                    attempts=attempts[i], elapsed_s=elapsed,
                )
        if next_round and backoff > 0:
            time.sleep(backoff)
        active = next_round
    if campaign.profile:
        fanout_elapsed = perf_counter() - fanout_start
    if campaign.profile and fanout_elapsed > 0 and busy_s > 0:
        # Busy fraction of the pool during the cell fan-out: 1.0 means
        # every worker simulated for the whole phase.
        campaign.pool_utilization = min(
            1.0, busy_s / (fanout_elapsed * workers)
        )
    return results


__all__ = [
    "CellSpec",
    "WorkerRunError",
    "build_model_factories",
    "build_scheduler_factory",
    "run_cells",
]
