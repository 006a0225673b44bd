"""The one executor for campaign cells, serial or across worker processes.

A *cell* is one (mix, config, quanta, variant) simulation together with the
recipe for its slowdown models. Every batch of cells — a
:meth:`Campaign.run_mix` call, a survey, a ``--workers N`` sweep, a fleet
round — goes through the same three steps:

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
   picklable payload: the result and the legs' prefixes, or the
   exception's type/message/traceback/diagnosis.
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
and backs off before the next one starts. A pool run attempts all pending
cells of a round across a
:class:`~concurrent.futures.ProcessPoolExecutor` and settles them **in
submission order**, so it commits the same records, alone prefixes
included, counts the same alone-run cache uses, and surveys accumulate
floats in the same order, as a serial run — ``workers=N`` is
bit-identical to ``workers=1``. A cell that needed a retry settles in a
later round than its neighbours, so the pool's *store append order*, and
which of two cells sharing an alone leg extends it, can then differ; the
store is keyed last-record-wins and results stay bit-identical.

A serial give-up without ``keep_going`` re-raises the original exception;
a pool give-up raises :class:`WorkerRunError` with the worker's traceback.
A worker that dies outright (the pool breaks) is a ``WorkerCrash`` failure:
the pool is rebuilt and the surviving cells resubmitted. Store I/O errors
are never captured as cell failures.

Model recipes must be **module-level callables** (pickled by reference):
``model_builder(*model_builder_args)`` returns the ``{name: factory}`` dict
``run_workload`` expects, and a :class:`CellSpec` whose recipe or its
arguments do not pickle raises at construction. The in-process arguments of
:meth:`Campaign.run_mix` (factories, system hooks) never enter a
:class:`CellSpec`.
"""

from __future__ import annotations

import dataclasses
import functools
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
    Mapping,
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
    ModelFactory,
    RunResult,
    run_workload,
)
from repro.obs.metrics import MetricsRegistry
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
    fidelity tier; see docs/fidelity.md. The model recipe must pickle,
    which is checked here so that a lambda or nested def fails in a
    serial run too, not only once ``--workers`` sends it to a pool.
    """

    mix: WorkloadMix
    config: SystemConfig
    quanta: int = 1
    variant: str = ""
    model_builder: Optional[Callable[..., Dict[str, ModelFactory]]] = None
    model_builder_args: Tuple[Any, ...] = ()
    telemetry: Optional[TelemetrySpec] = None

    def __post_init__(self) -> None:
        pickle.dumps((self.model_builder, self.model_builder_args))


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


def _attempt(
    task: _CellTask, run_kwargs: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Run one cell once; the only place that picks the fidelity tier.

    ``run_kwargs`` are the in-process ``run_workload`` arguments of a
    :meth:`Campaign.run_mix` call. An event cell's payload holds the
    prefixes its alone legs reached under ``"alone"``; a failure's holds
    the exception itself under ``"exc"``, for a serial give-up to
    re-raise. Every payload holds the attempt's wall seconds, alone legs
    included. A profiled cell's payload adds its shared-run engine events,
    read from the registry its quanta were snapshotted into (an analytic
    cell simulates none).
    """
    spec = task.spec
    run_metrics: Optional[MetricsRegistry] = None
    cache: Optional[AloneRunCache] = None
    start = perf_counter()
    try:
        if spec.config.engine == "analytic":
            # Closed form: no System, scheduler, telemetry or alone runs.
            result = run_analytic(spec.mix, spec.config, quanta=spec.quanta)
        else:
            cache = AloneRunCache(task.prefixes)
            kwargs: Dict[str, Any] = dict(run_kwargs or {})
            factories = build_model_factories(spec)
            if factories is not None:
                kwargs["model_factories"] = factories
            # Fresh per attempt: a failed attempt's counters must not leak
            # into a retried cell's persisted metrics.
            run_metrics = MetricsRegistry() if task.profile else None
            result = run_workload(
                spec.mix,
                spec.config,
                quanta=spec.quanta,
                alone_cache=cache,
                check_invariants=task.check_invariants,
                wall_clock_budget_s=task.wall_clock_budget_s,
                telemetry=spec.telemetry,
                run_metrics=run_metrics,
                **kwargs,
            )
    except Exception as exc:  # noqa: BLE001 - isolated and reported
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
        payload["events"] = (
            int(run_metrics.counter("engine.events").value)
            if run_metrics is not None else 0
        )
    if run_metrics is not None:
        # Snapshots are plain dicts: picklable as-is.
        payload["metrics"] = run_metrics.snapshots
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


def _map(
    fn: Callable[[Any], Any], payloads: Sequence[Any], workers: int
) -> List[Tuple[str, Any]]:
    """:func:`_run_tasks` when ``workers > 1``, else ``fn`` in-process."""
    if workers > 1:
        return _run_tasks(fn, payloads, workers)
    return [("ok", fn(payload)) for payload in payloads]


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
            campaign.store.put_run(cell.key, result_to_json(payload["result"]))
        campaign.computed += 1
        if cell.fingerprint:
            campaign.note_retry_success(cell.fingerprint)
        if campaign.profile:
            campaign.record_timing(
                spec.mix.name, spec.variant, spec.quanta,
                payload["wall_s"], payload["events"],
            )
        if campaign.store is not None and payload.get("metrics"):
            campaign.store.put_metrics(cell.key, payload["metrics"])
        return None
    failure = _failure_from_payload(campaign, spec, payload, cell.attempts)
    cell.fingerprint = failure.fingerprint()
    campaign.breaker.record_failure(
        cell.fingerprint, failure.error_type, failure.message
    )
    if campaign.may_retry(cell.fingerprint, cell.attempts, cell.spent_s):
        campaign.note_retry(cell.fingerprint)
        delay = campaign.retry_policy.delay_s(cell.attempts, cell.fingerprint)
        cell.spent_s += delay
        return delay
    campaign.record_give_up(failure, cell.spent_s)
    if not campaign.keep_going:
        raise payload.get("exc") or WorkerRunError(failure)
    return None


def _run_batch(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    workers: int = 1,
    run_kwargs: Optional[Mapping[str, Any]] = None,
) -> List[Optional[RunResult]]:
    """Plan, attempt and settle one batch of cells.

    With ``workers=1`` the attempts run in-process, and ``run_kwargs`` —
    the in-process ``run_workload`` arguments of a :meth:`Campaign.run_mix`
    call — reach each of them; with more, the attempts run in the pool.
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
    if workers > 1:
        attempt: Callable[[_CellTask], Dict[str, Any]] = _cell_worker
    else:
        attempt = functools.partial(_attempt, run_kwargs=run_kwargs)
    fanout_start = perf_counter()
    busy_s = 0.0
    active = pending
    while active:
        outcomes = _map(attempt, [cell.task for cell in active], workers)
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
    and stores, up to the settle order of retried cells.
    """
    if workers > 1:
        return _run_batch(campaign, cells, workers)
    return [
        result for cell in cells for result in _run_batch(campaign, [cell])
    ]


__all__ = [
    "CellSpec",
    "WorkerRunError",
    "build_model_factories",
    "run_cells",
]
