"""The one executor for campaign cells, serial or across worker processes.

A *cell* is one (mix, config, quanta, variant) simulation together with the
recipe for the machine under test. Every batch of cells — a
:meth:`Campaign.run_mix` call, a survey, a policy comparison, a
``--workers N`` sweep, a fleet round — goes through the same three steps:

1. **Plan** — each cell's store key is computed; cells already in the
   checkpoint store are resumed (``resume``). The rest are handed the
   prefixes of their alone legs that the campaign's alone-run cache or
   store already holds; the plan step simulates nothing.
2. **Attempt** — :func:`_attempt` runs one cell once. It is the only place
   that chooses between :func:`~repro.analytic.runner.run_analytic` and
   :func:`~repro.harness.runner.run_workload`, by the cell's
   ``config.engine`` (its fidelity tier; nothing else in a cell names
   one). It runs an event cell's alone legs too, from the prefixes handed
   in and only as far as the shared run reads them, and returns a
   picklable payload: the result and the prefixes of the cell's own
   legs, or the exception's type/message/traceback/diagnosis.
3. **Settle** — a result is persisted and counted, and so is each alone
   leg's use; a prefix longer than the campaign's is kept. A failure
   feeds the circuit breaker, then is retried under the campaign's
   :class:`~repro.durability.retry.RetryPolicy` (attempts left, circuit
   closed, per-cell wall-clock budget not exhausted; deterministic backoff
   before the next attempt) or given up: one replayable
   :class:`~repro.resilience.faults.RunFailure`, which holds the cell's
   attempts and, when the policy can retry, why retrying stopped. A cell
   is charged its own attempts' wall seconds plus its own backoffs,
   whatever else runs beside it.

``workers=1`` runs in-process over one-cell batches, so each cell commits
and backs off before the next one starts. The cells of one serial
:func:`run_cells` call share their live alone legs: an attempt extends
the legs earlier cells left running instead of re-simulating them from
cycle 0, a failed attempt discards the legs it touched, and a leg is
released once the last cell of the call that uses it has settled. A pool
run attempts all pending cells of a round across a
:class:`~concurrent.futures.ProcessPoolExecutor`, each attempt from the
prefixes it was handed, and settles them **in submission order**. Either
way each leg is the same deterministic simulation, so a pool run commits
the same records, alone prefixes included, counts the same alone-run
cache uses, and surveys accumulate floats in the same order, as a serial
run — ``workers=N`` is bit-identical to ``workers=1``. A cell that needed
a retry settles in a later round than its neighbours, so the pool's
*store append order*, and which of two cells sharing an alone leg extends
it, can then differ; the store is keyed last-record-wins and results stay
bit-identical.

A serial give-up without ``keep_going`` re-raises the original exception;
a pool give-up raises :class:`WorkerRunError` with the worker's traceback.
A worker that dies outright (the pool breaks) is a ``WorkerCrash`` failure:
the pool is rebuilt and the surviving cells resubmitted. Store I/O errors
are never captured as cell failures.

A cell's recipe must be a **module-level callable** (pickled by
reference): ``recipe(*recipe_args)`` returns the keyword arguments of
:func:`~repro.harness.runner.run_workload` that build the machine under
test — ``model_factories``, ``policy_factories``, ``scheduler_factory``,
``epoch_assignment``, ``system_hooks`` — and may build closures to do it.
A :class:`CellSpec` whose recipe or its arguments do not pickle raises at
construction.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
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

from repro.analytic.runner import run_analytic
from repro.config import SystemConfig
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    LiveLegs,
    RunResult,
    run_workload,
)
from repro.obs.bus import TraceBus
from repro.obs.events import GUARD, MODEL, POLICY, QUANTUM
from repro.obs.sinks import ListSink
from repro.resilience.campaign import result_from_json, result_to_json
from repro.resilience.faults import RunFailure, config_fingerprint
from repro.telemetry.spec import TelemetrySpec
from repro.workloads.mixes import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign

@dataclass(frozen=True)
class CellSpec:
    """One independent unit of campaign work (a single shared run).

    ``config.engine`` (``"event"`` or ``"analytic"``) is the cell's
    fidelity tier; see docs/fidelity.md. ``recipe(*recipe_args)`` returns
    ``run_workload``'s keyword arguments for the machine under test
    (``None``: the bare platform). The recipe must pickle, which is
    checked here so that a lambda or nested def fails in a serial run
    too, not only once ``--workers`` sends it to a pool.
    """

    mix: WorkloadMix
    config: SystemConfig
    quanta: int = 1
    variant: str = ""
    recipe: Optional[Callable[..., Dict[str, Any]]] = None
    recipe_args: Tuple[Any, ...] = ()
    telemetry: Optional[TelemetrySpec] = None

    def __post_init__(self) -> None:
        pickle.dumps((self.recipe, self.recipe_args))


class WorkerRunError(RuntimeError):
    """A cell failed in a worker process while ``keep_going`` was off."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(
            f"{failure.error_type} in worker for mix '{failure.mix_name}': "
            f"{failure.message}\n{failure.traceback}"
        )
        self.failure = failure


# ----------------------------------------------------------------------
# Attempt side: runs in-process or in a worker (module-level, so the pool
# pickles these by reference).

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


@dataclass(frozen=True)
class _CellTask:
    """Everything an attempt needs to run one cell, fully picklable."""

    spec: CellSpec
    prefixes: Dict[Tuple[Any, ...], AloneProfile]  # known alone-leg prefixes
    check_invariants: bool
    wall_clock_budget_s: Optional[float]
    profile: bool = False


#: The trace categories a profiled cell persists: its per-quantum events,
#: not the per-epoch EPOCH or per-access CACHE streams.
PROFILE_CATEGORIES = QUANTUM | MODEL | GUARD | POLICY


def _attempt(
    task: _CellTask, legs: Optional[LiveLegs] = None
) -> Dict[str, Any]:
    """Run one cell once; the only place that picks the fidelity tier.

    ``legs`` are the live alone legs of a serial batch, which the attempt
    extends; a pool attempt starts with none. An event cell's payload
    holds the prefixes its own alone legs reached under ``"alone"``; a
    failure's holds the exception itself under ``"exc"``, for a serial
    give-up to re-raise. Every payload holds the attempt's wall seconds,
    alone legs included. A profiled cell's payload adds its shared-run
    engine events (an analytic cell simulates none) and, for an event
    cell, its :data:`PROFILE_CATEGORIES` trace events under ``"trace"``.
    """
    spec = task.spec
    sink: Optional[ListSink] = None
    cache: Optional[AloneRunCache] = None
    start = perf_counter()
    try:
        if spec.config.engine == "analytic":
            # Closed form: no System, scheduler, telemetry or alone runs.
            result = run_analytic(spec.mix, spec.config, quanta=spec.quanta)
        else:
            cache = AloneRunCache(task.prefixes, legs)
            machine = spec.recipe(*spec.recipe_args) if spec.recipe else {}
            # Fresh per attempt: a failed attempt's events must not leak
            # into a retried cell's persisted record.
            sink = ListSink() if task.profile else None
            result = run_workload(
                spec.mix,
                spec.config,
                quanta=spec.quanta,
                alone_cache=cache,
                check_invariants=task.check_invariants,
                wall_clock_budget_s=task.wall_clock_budget_s,
                telemetry=spec.telemetry,
                obs=None if sink is None else TraceBus([sink], PROFILE_CATEGORIES),
                **machine,
            )
    except Exception as exc:  # noqa: BLE001 - isolated and reported
        if cache is not None and legs is not None:
            # Its legs may have run past the prefixes the campaign keeps.
            for key, _ in cache.prefixes():
                legs.pop(key, None)
        return {
            "ok": False, "exc": exc, "wall_s": perf_counter() - start,
            **_error_payload(exc),
        }
    payload: Dict[str, Any] = {
        "ok": True, "result": result, "wall_s": perf_counter() - start,
    }
    if cache is not None:
        payload["alone"] = cache.prefixes()
    if task.profile:
        events = sink.events if sink is not None else []
        payload["events"] = sum(
            event.data["engine_events"]
            for event in events if event.category == QUANTUM
        )
    if sink is not None:
        payload["trace"] = [event.to_json() for event in sink.events]
    return payload


def _cell_worker(task: _CellTask) -> Dict[str, Any]:
    """The pool's attempt: the exception object stays in the worker,
    since it need not pickle. Its systems are reference cycles; collected
    before the next cell, a worker's peak memory stays the same whichever
    cells the pool hands it."""
    payload = _attempt(task)
    payload.pop("exc", None)
    gc.collect()
    return payload


# ----------------------------------------------------------------------
# Parent side: plan, dispatch, settle.

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
    campaign: "Campaign", cell: CellSpec, payload: Dict[str, Any],
    attempts: int,
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
        attempts=attempts,
    )


@dataclass
class _Pending:
    """A planned cell between its first attempt and its settlement."""

    index: int  # position in the batch
    key: str  # checkpoint-store key
    task: _CellTask
    attempts: int = 0
    spent_s: float = 0.0  # wall seconds of its attempts and backoffs
    fingerprint: str = ""  # circuit-breaker key, once an attempt failed
    result: Optional[RunResult] = None


def _settle(
    campaign: "Campaign", cell: _Pending, payload: Dict[str, Any]
) -> Optional[float]:
    """Settle one attempt: persist a result, or retry or give up a failure.

    Returns the backoff before the cell's next attempt, or ``None`` once
    the cell is settled. A worker that died reports no wall seconds, so
    its attempt is charged none.
    """
    spec = cell.task.spec
    cell.attempts += 1
    cell.spent_s += payload.get("wall_s", 0.0)
    if payload["ok"]:
        cache = campaign.alone_cache()
        for key, prefix in payload.get("alone", ()):
            cache.keep(key, prefix)
        cell.result = payload["result"]
        if campaign.store is not None:
            # The run record goes last: a resume recomputes a cell without
            # one, so a kill before it loses none of the cell's records.
            if payload.get("trace"):
                campaign.store.put_metrics(cell.key, payload["trace"])
            campaign.store.put_run(cell.key, result_to_json(payload["result"]))
        campaign.computed += 1
        if cell.fingerprint:
            campaign.note_retry_success(cell.fingerprint)
        if campaign.profile:
            campaign.record_timing(
                spec.mix.name, spec.variant, spec.quanta,
                payload["wall_s"], payload["events"],
            )
        return None
    failure = _failure_from_payload(campaign, spec, payload, cell.attempts)
    cell.fingerprint = failure.fingerprint()
    campaign.breaker.record_failure(
        cell.fingerprint, failure.error_type, failure.message
    )
    if campaign.may_retry(cell.fingerprint, cell.attempts, cell.spent_s):
        campaign.retry_attempts += 1
        delay = campaign.retry_policy.delay_s(cell.attempts, cell.fingerprint)
        cell.spent_s += delay
        return delay
    campaign.record_give_up(cell.key, failure, cell.spent_s)
    if not campaign.keep_going:
        raise payload.get("exc") or WorkerRunError(failure)
    return None


def _run_batch(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    workers: int = 1,
    legs: Optional[LiveLegs] = None,
) -> List[Optional[RunResult]]:
    """Plan, attempt and settle one batch of cells.

    With ``workers=1`` the attempts run in-process and extend ``legs``;
    with more, they run in the pool.
    """
    # Plan: resume stored cells, hand the rest their known alone prefixes.
    results: List[Optional[RunResult]] = [None] * len(cells)
    planned: List[Tuple[int, str]] = []
    for i, spec in enumerate(cells):
        key = campaign.run_key(
            spec.mix, spec.config, spec.quanta, spec.variant,
            telemetry=spec.telemetry,
        )
        stored = (
            campaign.store.get_run(key)
            if campaign.resume and campaign.store is not None
            else None
        )
        if stored is None:
            planned.append((i, key))
        else:
            results[i] = result_from_json(stored, spec.config)
            campaign.resumed += 1
    cache = campaign.alone_cache()
    pending = [
        _Pending(i, key, _CellTask(
            spec=cells[i],
            # An analytic cell's alone leg is closed form.
            prefixes={} if cells[i].config.engine == "analytic" else cache.known(
                cells[i].mix, cells[i].config, cells[i].quanta
            ),
            check_invariants=campaign.check_invariants,
            wall_clock_budget_s=campaign.wall_clock_budget_s,
            profile=campaign.profile,
        ))
        for i, key in planned
    ]

    # Attempt and settle in rounds: each round attempts every unsettled
    # cell, and a retried cell waits out the round's longest backoff.
    fanout_start = perf_counter()
    busy_s = 0.0
    active = pending
    while active:
        if workers > 1:
            outcomes = _run_tasks(
                _cell_worker, [cell.task for cell in active], workers
            )
        else:
            outcomes = [("ok", _attempt(cell.task, legs)) for cell in active]
        retry: List[_Pending] = []
        backoff = 0.0
        for cell, (kind, value) in zip(active, outcomes):
            payload = value if kind == "ok" else {
                "ok": False, "error_type": "WorkerCrash", "message": value,
            }
            busy_s += payload.get("wall_s", 0.0)
            delay = _settle(campaign, cell, payload)
            if delay is not None:
                retry.append(cell)
                backoff = max(backoff, delay)
        if retry and backoff > 0:
            time.sleep(backoff)
        active = retry
    fanout_s = perf_counter() - fanout_start
    if campaign.profile and workers > 1 and busy_s > 0 and fanout_s > 0:
        # Busy fraction of the pool during the cell fan-out: 1.0 means
        # every worker simulated for the whole phase.
        campaign.pool_utilization = min(1.0, busy_s / (fanout_s * workers))
    for cell in pending:
        results[cell.index] = cell.result
    return results


def run_cells(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
) -> List[Optional[RunResult]]:
    """Run ``cells`` under ``campaign``'s fault/checkpoint discipline.

    Returns one entry per cell, in order: the :class:`RunResult`, or
    ``None`` for cells whose failure was captured by ``keep_going``.
    Results are the same at any ``workers``, and so are campaign counters
    and stores, up to the settle order of retried cells. A serial call's
    cells extend each other's live alone legs; each leg is released once
    the last cell that uses it has settled.
    """
    if workers > 1:
        return _run_batch(campaign, cells, workers)
    keys = [AloneRunCache.leg_keys(c.mix, c.config, c.quanta) for c in cells]
    last_use = {key: i for i, cell_keys in enumerate(keys) for key in cell_keys}
    legs: LiveLegs = {}
    results: List[Optional[RunResult]] = []
    for i, cell in enumerate(cells):
        results += _run_batch(campaign, [cell], legs=legs)
        for key in keys[i]:
            if last_use[key] == i:
                legs.pop(key, None)
    return results


__all__ = [
    "CellSpec",
    "WorkerRunError",
    "run_cells",
]
