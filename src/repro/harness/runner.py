"""Run orchestration: shared runs, alone runs and per-quantum ground truth.

The methodology follows Section 5 of the paper: the *actual* slowdown of an
application during a quantum is ``IPC_alone / IPC_shared``, where
``IPC_alone`` is measured over *the same amount of work* the application
completed in the shared quantum. We therefore simulate every application
alone on the identical platform, record a cycle/instruction profile, and
invert it over each shared quantum's instruction span:

::

    actual_slowdown(q) = Q / alone_cycles(inst_begin(q) .. inst_end(q))

Alone runs are memoised in :class:`AloneRunCache`, one serving every model,
policy and scheduler evaluated on the same workload, and lazy: each quantum
boundary extends them only as far as the instructions committed.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.harness.system import System
from repro.harness import metrics
from repro.mem.schedulers import Scheduler
from repro.models.base import SlowdownModel
from repro.obs.bus import TraceBus
from repro.obs.events import FAULT, QUANTUM
from repro.obs.metrics import MetricsRegistry
from repro.resilience.watchdog import QuantumWatchdog
from repro.telemetry.spec import TelemetrySpec
from repro.workloads.mixes import WorkloadMix

ModelFactory = Callable[[], SlowdownModel]
SchedulerFactory = Callable[[], Scheduler]
# A policy factory receives the system's attached models by name so policies
# can share a model instance (ASM-Cache and ASM-Mem both consume AsmModel).
PolicyFactory = Callable[[Dict[str, SlowdownModel]], "object"]
#: Cycles between an alone run's instruction checkpoints.
CHECKPOINT_INTERVAL = 2000


@dataclass
class AloneProfile:
    """Committed-instruction checkpoints of an alone run."""

    checkpoint_interval: int
    instructions: List[int]  # instructions committed at (k+1)*interval

    def time_at(self, instruction: float) -> float:
        """Cycles the alone run needed to commit ``instruction`` many
        instructions (linear interpolation; linear extrapolation past the
        profiled range)."""
        if instruction <= 0:
            return 0.0
        insts = self.instructions
        interval = self.checkpoint_interval
        if not insts:
            # Nothing was profiled; assume one instruction per cycle rather
            # than crashing (the caller converts the resulting span to NaN
            # ground truth if it is meaningless).
            return float(instruction)
        index = bisect.bisect_left(insts, instruction)
        if index >= len(insts):
            # Extrapolate with the slope of the last profiled interval. A
            # flat tail (the alone run stalled or its trace ended) would
            # make that slope zero; clamping it to 1 instruction/interval
            # used to charge ``interval`` cycles per extrapolated
            # instruction — wildly distorting alone cycles — so fall back
            # to the whole-profile average rate instead.
            slope = insts[-1] - insts[-2] if len(insts) >= 2 else insts[-1]
            if slope <= 0:
                slope = insts[-1] / len(insts)
            if slope <= 0:
                # The profiled run never committed anything: instructions
                # beyond the profile are unreachable in alone time.
                return float("inf")
            extra = (instruction - insts[-1]) / slope
            return (len(insts) + extra) * interval
        prev_inst = insts[index - 1] if index > 0 else 0
        prev_time = index * interval
        span = insts[index] - prev_inst
        if span <= 0:
            return prev_time + interval
        frac = (instruction - prev_inst) / span
        return prev_time + frac * interval

    def cycles_for_span(self, inst_begin: float, inst_end: float) -> float:
        return self.time_at(inst_end) - self.time_at(inst_begin)


#: Live alone legs by key: each leg's growing profile and its one-core run.
LiveLegs = Dict[tuple, Tuple[AloneProfile, Iterator[int]]]


def _checkpoints(trace, config: SystemConfig, interval: int) -> Iterator[int]:
    """Instructions one application alone on the platform (full cache, no
    co-runners, no epoch prioritisation) has committed at each
    ``interval`` cycles, simulated one checkpoint per step."""
    system = System(
        dataclasses.replace(config, num_cores=1), [trace], enable_epochs=False
    )
    time = 0
    while True:
        time += interval
        system.run_until(time)
        yield system.cores[0].committed_instructions(time)


def _covers(profile: AloneProfile, cycles: int, instruction: float) -> bool:
    """Whether ``profile`` answers ``time_at(instruction)`` as its whole
    leg of ``cycles`` would: once its last checkpoint reaches
    ``instruction`` (interpolation reads no later checkpoint), or once it
    is the whole leg, in whole intervals (extrapolation)."""
    insts = profile.instructions
    whole = len(insts) * profile.checkpoint_interval >= cycles
    return whole or bool(insts) and insts[-1] >= instruction


def run_alone(
    trace,
    config: SystemConfig,
    cycles: int,
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
) -> AloneProfile:
    """Simulate one application alone on the platform for ``cycles``,
    rounded up to whole checkpoint intervals, and record its
    cycle/instruction profile."""
    run = _checkpoints(trace, config, checkpoint_interval)
    count = -(-cycles // checkpoint_interval)
    return AloneProfile(checkpoint_interval, list(itertools.islice(run, count)))


def alone_cap(config: SystemConfig, quanta: int) -> int:
    """The length cap, in cycles, of the alone legs of a ``quanta``-quantum
    run: one quantum beyond the run."""
    return (quanta + 1) * config.quantum_cycles


class AloneRunCache:
    """Memoises alone legs keyed by (trace identity, config, length cap).

    :meth:`get` extends a leg, in whole checkpoints, only until it answers
    the instruction asked for as the whole leg would. A live leg resumes
    its one-core run; a prefix simulated elsewhere (``stored``, or a
    persistent store) that falls short is re-simulated from cycle 0, which
    repeats it exactly. ``live`` maps a key to its live leg (profile, run)
    and may be shared: caches built over one dict extend each other's
    live legs, while each reports only the legs it was asked for.

    Tracks how it was used: ``hits`` (served from memory, extending a live
    leg included), ``misses`` (a use past the longest prefix known here:
    simulated here, or kept from another cache) and ``store_hits`` (served
    by a prefix simulated elsewhere). :meth:`summary` renders a one-line
    account for campaign reports.
    """

    def __init__(
        self,
        stored: Optional[Mapping[tuple, AloneProfile]] = None,
        live: Optional[LiveLegs] = None,
    ) -> None:
        self._profiles: Dict[tuple, AloneProfile] = {}
        self._live: LiveLegs = {} if live is None else live
        self._stored = dict(stored or {})
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    @staticmethod
    def _config_key(config: SystemConfig) -> tuple:
        return (
            config.core,
            config.l1,
            config.llc,
            config.dram,
        )

    @classmethod
    def _key(
        cls,
        mix: WorkloadMix,
        core: int,
        config: SystemConfig,
        cycles: int,
    ) -> tuple:
        return (mix.specs[core], mix.seed, core, cls._config_key(config), cycles)

    @classmethod
    def leg_keys(
        cls, mix: WorkloadMix, config: SystemConfig, quanta: int
    ) -> List[tuple]:
        """The keys of the alone legs of a ``quanta``-quantum run of
        ``mix``, one per core."""
        cap = alone_cap(config, quanta)
        return [cls._key(mix, core, config, cap) for core in range(mix.num_cores)]

    def _load(self, key: tuple) -> Optional[AloneProfile]:
        """A prefix of leg ``key`` simulated elsewhere, or ``None``. Only
        a live leg's profile grows, so a loaded one is shared as is."""
        return self._stored.get(key)

    def known(
        self, mix: WorkloadMix, config: SystemConfig, quanta: int
    ) -> Dict[tuple, AloneProfile]:
        """The prefixes held here of the alone legs of a ``quanta``-quantum
        run of ``mix``, by key; simulates and counts nothing."""
        known = {}
        for key in self.leg_keys(mix, config, quanta):
            profile = self._profiles.get(key) or self._load(key)
            if profile is not None:
                known[key] = profile
        return known

    def _reuse(
        self, key: tuple, cycles: int, instruction: float
    ) -> Optional[AloneProfile]:
        """The known prefix of leg ``key``, counted as a hit, if it covers
        ``instruction``; otherwise ``None``, counted as a miss."""
        profile = self._profiles.get(key)
        stored = profile is None
        if stored:
            profile = self._load(key)
        if profile is None or not _covers(profile, cycles, instruction):
            self.misses += 1
            return None
        if stored:
            self.store_hits += 1
            self._profiles[key] = profile
        else:
            self.hits += 1
        return profile

    def _lookup(
        self,
        mix: WorkloadMix,
        core: int,
        config: SystemConfig,
        cycles: int,
        instruction: float,
    ) -> Tuple[tuple, AloneProfile, bool]:
        """:meth:`get`'s work: (key, profile, whether it grew)."""
        key = self._key(mix, core, config, cycles)
        leg = self._live.get(key)
        if leg is None:
            known = self._reuse(key, cycles, instruction)
            if known is not None:
                return key, known, False
            leg = self._live[key] = (
                AloneProfile(CHECKPOINT_INTERVAL, []),
                _checkpoints(mix.trace_for_core(core), config, CHECKPOINT_INTERVAL),
            )
        else:
            self.hits += 1
        profile, run = leg
        self._profiles[key] = profile
        grew = not _covers(profile, cycles, instruction)
        while not _covers(profile, cycles, instruction):
            profile.instructions.append(next(run))
        return key, profile, grew

    def get(
        self,
        mix: WorkloadMix,
        core: int,
        config: SystemConfig,
        cycles: int,
        instruction: float = math.inf,
    ) -> AloneProfile:
        """The alone profile of ``mix``'s app on ``core``, capped at
        ``cycles``, simulated until it answers ``time_at(instruction)``
        as the whole leg would (by default, the whole leg)."""
        return self._lookup(mix, core, config, cycles, instruction)[1]

    def keep(self, key: tuple, profile: AloneProfile) -> bool:
        """Account one run's use of leg ``key``, which another cache left
        at ``profile``, and keep ``profile`` if it is longer than the
        prefix known here, as a copy: the other cache's leg may still be
        live and growing. Returns whether it was kept."""
        # The known prefix is as long when it covers a leg of profile's length.
        length = len(profile.instructions) * profile.checkpoint_interval
        if self._reuse(key, length, math.inf) is not None:
            return False
        self._profiles[key] = AloneProfile(
            profile.checkpoint_interval, list(profile.instructions)
        )
        self._live.pop(key, None)
        return True

    def prefixes(self) -> List[Tuple[tuple, AloneProfile]]:
        """(key, profile) of every leg asked for, in the order first asked."""
        return list(self._profiles.items())

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.hits + self.misses,
            "store_hits": self.store_hits,
            "entries": len(self._profiles),
        }

    def summary(self) -> str:
        line = (
            f"alone-run cache: {self.hits} hits, {self.misses} computed"
        )
        if self.store_hits:
            line += f", {self.store_hits} from store"
        return line

    def __len__(self) -> int:
        return len(self._profiles)


@dataclass
class QuantumRecord:
    """Ground truth and model estimates for one quantum.

    ``confidence`` / ``degraded`` mirror ``estimates``: per model, the
    per-core telemetry confidence (1.0 while healthy) and degradation
    reason (``None`` while healthy) the model's estimate guard reported
    for this quantum."""

    index: int
    instructions: List[int]  # committed per core at quantum end
    shared_ipc: List[float]
    actual_slowdowns: List[float]  # NaN when the core made no progress
    estimates: Dict[str, List[float]] = field(default_factory=dict)
    confidence: Dict[str, List[float]] = field(default_factory=dict)
    degraded: Dict[str, List[Optional[str]]] = field(default_factory=dict)


@dataclass
class RunResult:
    """Everything measured in one shared run of a workload."""

    mix: WorkloadMix
    config: SystemConfig
    records: List[QuantumRecord]

    def errors_for(self, model_name: str) -> List[List[float]]:
        """Per-core lists of per-quantum estimation errors (percent)."""
        n = self.mix.num_cores
        errors: List[List[float]] = [[] for _ in range(n)]
        for record in self.records:
            estimates = record.estimates.get(model_name)
            if estimates is None:
                continue
            for core in range(n):
                actual = record.actual_slowdowns[core]
                if math.isnan(actual) or actual <= 0:
                    continue
                errors[core].append(
                    metrics.estimation_error_pct(estimates[core], actual)
                )
        return errors

    def mean_error(self, model_name: str) -> float:
        all_errors = [e for core in self.errors_for(model_name) for e in core]
        return metrics.mean(all_errors) if all_errors else float("nan")

    def mean_actual_slowdowns(self) -> List[float]:
        """Per-core mean actual slowdown across quanta (NaN-quanta skipped)."""
        n = self.mix.num_cores
        result = []
        for core in range(n):
            values = [
                r.actual_slowdowns[core]
                for r in self.records
                if not math.isnan(r.actual_slowdowns[core])
            ]
            result.append(metrics.mean(values) if values else float("nan"))
        return result

    def max_slowdown(self) -> float:
        return metrics.max_slowdown(self.mean_actual_slowdowns())

    def harmonic_speedup(self) -> float:
        return metrics.harmonic_speedup(self.mean_actual_slowdowns())


def _emit_fault(
    obs: Optional[TraceBus],
    system: System,
    quantum: int,
    kind: str,
    exc: BaseException,
) -> None:
    """Record a run-aborting exception on the trace bus before re-raising.

    The FAULT event is the trace's last word on an aborted run: the
    inspector renders it even when no quantum boundary follows."""
    if obs is not None and obs.mask & FAULT:
        obs.emit(
            system.engine.now,
            FAULT,
            kind,
            quantum=quantum,
            error_type=type(exc).__name__,
            message=str(exc),
        )


def _snap_metrics(
    run_metrics: MetricsRegistry,
    system: System,
    models: Dict[str, SlowdownModel],
    prev: Dict[str, List[int]],
    shared_ipc: List[float],
) -> None:
    """Update the registry with this quantum's deltas and snapshot it.

    The per-core counters preserve the Table 1 conservation law by
    construction (``demand_accesses`` is incremented by ``hits + misses``),
    which ``tests/test_obs.py`` asserts on every snapshot.
    """
    hierarchy = system.hierarchy
    controller = system.controller
    run_metrics.counter("engine.events").inc(system.engine.events_executed)
    delay_hist = run_metrics.histogram("queueing_delay")
    for core in range(system.config.num_cores):
        hits_delta = hierarchy.demand_hits[core] - prev["hits"][core]
        misses_delta = hierarchy.demand_misses[core] - prev["misses"][core]
        queueing_delta = controller.queueing_cycles[core] - prev["queueing"][core]
        run_metrics.counter(f"core{core}.demand_hits").inc(hits_delta)
        run_metrics.counter(f"core{core}.demand_misses").inc(misses_delta)
        run_metrics.counter(f"core{core}.demand_accesses").inc(
            hits_delta + misses_delta
        )
        run_metrics.gauge(f"core{core}.shared_ipc").set(shared_ipc[core])
        if misses_delta > 0:
            delay_hist.observe(queueing_delta / misses_delta)
        prev["hits"][core] = hierarchy.demand_hits[core]
        prev["misses"][core] = hierarchy.demand_misses[core]
        prev["queueing"][core] = controller.queueing_cycles[core]
    for name, model in models.items():
        stats = model.trace_stats()
        if not stats:
            continue
        for core, stat in enumerate(stats):
            if "car_alone" in stat:
                run_metrics.gauge(f"{name}.core{core}.car_alone").set(
                    stat["car_alone"]
                )
            if "car_shared" in stat:
                run_metrics.gauge(f"{name}.core{core}.car_shared").set(
                    stat["car_shared"]
                )
    run_metrics.snap(system.engine.now)


def run_workload(
    mix: WorkloadMix,
    config: SystemConfig,
    model_factories: Optional[Dict[str, ModelFactory]] = None,
    policy_factories: Optional[Sequence[PolicyFactory]] = None,
    scheduler_factory: Optional[SchedulerFactory] = None,
    quanta: int = 1,
    alone_cache: Optional[AloneRunCache] = None,
    enable_epochs: bool = True,
    epoch_assignment: str = "random",
    check_invariants: bool = False,
    wall_clock_budget_s: Optional[float] = None,
    system_hooks: Sequence[Callable[[System], None]] = (),
    telemetry: Optional[TelemetrySpec] = None,
    obs: Optional[TraceBus] = None,
    run_metrics: Optional[MetricsRegistry] = None,
) -> RunResult:
    """Run ``mix`` for ``quanta`` quanta with the given models/policies and
    compute per-quantum ground-truth slowdowns.

    ``telemetry`` attaches a deterministic counter-fault injector to every
    model's counter bank (see :mod:`repro.telemetry`); ``None`` means
    perfect telemetry and is bit-identical to the pre-telemetry runner.
    ``check_invariants`` attaches a
    :class:`repro.resilience.invariants.InvariantChecker` that validates
    platform conservation laws at every quantum boundary.
    ``wall_clock_budget_s`` bounds the real time each quantum may take;
    independently, a stall watchdog always turns a dead quantum (drained
    event queue, stopped engine, zero progress) into a diagnosable error
    instead of letting :meth:`Engine.run` silently clamp time.
    ``system_hooks`` are called with the constructed :class:`System` before
    the run starts (fault injectors, extra instrumentation, the
    :class:`~repro.obs.profile.StageProfiler`).
    ``obs`` is an optional :class:`~repro.obs.bus.TraceBus` threaded into
    the system, models and policies: the runner itself emits one QUANTUM
    event per boundary (ground truth + IPC) and FAULT events when a
    watchdog/deadline abort crosses it. ``run_metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` snapshotted at every
    quantum boundary (per-core demand hits/misses/accesses, shared IPC,
    queueing-delay histogram, per-model CAR gauges). Both are passive:
    a run with them attached is bit-identical to one without.
    """
    config = dataclasses.replace(config, num_cores=mix.num_cores)
    config.validate()
    scheduler = scheduler_factory() if scheduler_factory else None
    system = System(config, mix.traces(), scheduler=scheduler, seed=mix.seed,
                    enable_epochs=enable_epochs,
                    epoch_assignment=epoch_assignment,
                    telemetry=telemetry, obs=obs)

    models: Dict[str, SlowdownModel] = {}
    for name, factory in (model_factories or {}).items():
        model = factory()
        model.attach(system)
        models[name] = model
    policies = []
    for factory in policy_factories or ():
        policy = factory(models)
        policy.attach(system)
        policies.append(policy)
    for hook in system_hooks:
        hook(system)

    checker = None
    if check_invariants:
        from repro.resilience.invariants import InvariantChecker

        checker = InvariantChecker(system, models=list(models.values()))
        checker.attach()
    watchdog = QuantumWatchdog(wall_clock_budget_s)

    cap = alone_cap(config, quanta)
    # Explicit None check: an empty AloneRunCache is falsy (len == 0).
    cache = alone_cache if alone_cache is not None else AloneRunCache()

    records: List[QuantumRecord] = []
    prev_instructions = [0] * mix.num_cores
    prev_hier: Optional[Dict[str, List[int]]] = None
    if run_metrics is not None:
        prev_hier = {
            "hits": [0] * mix.num_cores,
            "misses": [0] * mix.num_cores,
            "queueing": [0] * mix.num_cores,
        }
    for q in range(quanta):
        try:
            system.run_quantum(wall_deadline=watchdog.next_deadline())
        except Exception as exc:
            _emit_fault(obs, system, q, "deadline-exceeded", exc)
            raise
        instructions = system.committed_instructions()
        try:
            watchdog.check_quantum(system, prev_instructions, instructions, q)
        except Exception as exc:
            _emit_fault(obs, system, q, "watchdog-stall", exc)
            raise
        actual: List[float] = []
        shared_ipc: List[float] = []
        for core in range(mix.num_cores):
            done = instructions[core] - prev_instructions[core]
            shared_ipc.append(done / config.quantum_cycles)
            if done <= 0:
                actual.append(float("nan"))
                continue
            profile = cache.get(mix, core, config, cap, instructions[core])
            alone_cycles = profile.cycles_for_span(
                prev_instructions[core], instructions[core]
            )
            if alone_cycles <= 0 or not math.isfinite(alone_cycles):
                actual.append(float("nan"))
            else:
                actual.append(config.quantum_cycles / alone_cycles)
        if checker is not None:
            checker.check_actual_slowdowns(actual, q)
        record = QuantumRecord(
            index=q,
            instructions=list(instructions),
            shared_ipc=shared_ipc,
            actual_slowdowns=actual,
        )
        for name, model in models.items():
            record.estimates[name] = list(model.estimates_history[q])
            if q < len(model.confidence_history):
                record.confidence[name] = list(model.confidence_history[q])
                record.degraded[name] = list(model.degraded_history[q])
        if obs is not None and obs.mask & QUANTUM:
            obs.emit(
                system.engine.now,
                QUANTUM,
                "quantum",
                index=q,
                instructions=list(instructions),
                shared_ipc=list(shared_ipc),
                actual_slowdowns=list(actual),
            )
        if run_metrics is not None and prev_hier is not None:
            _snap_metrics(run_metrics, system, models, prev_hier, shared_ipc)
        records.append(record)
        prev_instructions = instructions

    return RunResult(mix=mix, config=config, records=records)
