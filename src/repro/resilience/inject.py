"""Deterministic fault injectors.

Used by the resilience tests (and available for chaos-style campaign
drills) to prove that fault isolation, the watchdog and the invariant
guards actually catch the failure shapes they claim to:

* :class:`ExplodingModel` — a slowdown model that raises at a chosen
  quantum boundary (a NaN-producing or buggy model mid-campaign);
* :class:`FlakyModel` — a model that fails exactly once (sentinel-file
  gated), the transient shape supervised retries recover from;
* :class:`CorruptingTrace` — a trace that yields a corrupt record, or
  raises, after a chosen number of records (trace decode errors);
* :class:`EngineStallInjector` — stops the event loop at a chosen cycle,
  reproducing the "queue went dead, time silently clamps" hang;
* :class:`SpinInjector` — schedules a zero-progress self-rescheduling
  event at a chosen cycle, reproducing a live-locked event loop that only
  the wall-clock watchdog can catch;
* :class:`CounterCorruptionInjector` — mutates platform state (e.g. a
  cache hit counter) at a chosen cycle, for invariant-guard drills.

Everything is deterministic: injectors fire at fixed cycles/indices so a
failing campaign replays identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.cpu.trace import TraceIterator, TraceRecord
from repro.harness.system import System
from repro.models.base import SlowdownModel
from repro.workloads.mixes import WorkloadMix


class InjectedFault(RuntimeError):
    """Raised by injectors so tests can tell injected faults from real bugs."""


class ExplodingModel(SlowdownModel):
    """A model that raises :class:`InjectedFault` at quantum ``explode_at``
    (0-based) and estimates a constant slowdown before that."""

    name = "exploding"

    def __init__(self, explode_at: int = 0, estimate: float = 1.0) -> None:
        super().__init__()
        self.explode_at = explode_at
        self.estimate = estimate
        self._quantum = 0

    def estimate_slowdowns(self) -> List[float]:
        quantum = self._quantum
        self._quantum += 1
        if quantum >= self.explode_at:
            raise InjectedFault(
                f"injected model fault at quantum {quantum} "
                f"(cycle {self.now})"
            )
        return [self.estimate] * self.num_cores


class ProcessKillerModel(SlowdownModel):
    """Kills the whole interpreter at the first quantum boundary.

    Simulates a hard worker death (segfault, OOM kill) rather than a
    Python exception — the shape that breaks a process pool. Only ever
    attach this inside a sacrificial worker process."""

    name = "killer"

    def estimate_slowdowns(self) -> List[float]:
        os._exit(13)


# Module-level cell recipes, picklable by reference, for driving the
# parallel execution layer's failure paths from tests and chaos drills
# (see repro.parallel.CellSpec.recipe).

def benign_model_factories(estimate: float = 1.0):
    """A single constant-estimate model (an ExplodingModel set to never
    fire) — the cheapest possible picklable cell recipe."""
    return {"model_factories": {
        "constant": lambda: ExplodingModel(1 << 30, estimate=estimate)
    }}


def exploding_model_factories(explode_at: int = 0):
    """A model that raises :class:`InjectedFault` at quantum ``explode_at``."""
    return {"model_factories": {"exploding": lambda: ExplodingModel(explode_at)}}


def process_killer_factories():
    """A model that hard-kills its process at the first quantum boundary."""
    return {"model_factories": {"killer": lambda: ProcessKillerModel()}}


def flaky_model_factories(sentinel: str, mode: str = "raise"):
    """A model that fails once (recording the fact in ``sentinel``) and
    then behaves — the transient-failure shape retries recover from."""
    return {"model_factories": {"flaky": lambda: FlakyModel(sentinel, mode)}}


def flaky_node_model_factories(config, sentinel: str, mode: str = "kill"):
    """Fleet-node recipe (the ``FleetSpec.recipe`` shape, called as
    ``recipe(config, *args)``) whose model fails exactly once —
    published under the ``asm`` name so the fleet supervisor reads its
    estimates. The fleet determinism drills inject this to prove a
    parallel fleet with a worker crash matches a crash-free serial one."""
    return {"model_factories": {"asm": lambda: FlakyModel(sentinel, mode)}}


class FlakyModel(SlowdownModel):
    """A model whose fault is *transient*: it fails until a sentinel file
    exists, creating the sentinel on the way down, so the next attempt of
    the same cell succeeds. ``mode="raise"`` raises
    :class:`InjectedFault`; ``mode="kill"`` hard-kills the process (the
    retryable ``WorkerCrash`` shape). Drives the supervised-retry paths."""

    name = "flaky"

    def __init__(
        self, sentinel: str, mode: str = "raise", estimate: float = 1.0
    ) -> None:
        if mode not in ("raise", "kill"):
            raise ValueError("mode must be 'raise' or 'kill'")
        super().__init__()
        self.sentinel = sentinel
        self.mode = mode
        self.estimate = estimate

    def estimate_slowdowns(self) -> List[float]:
        if not os.path.exists(self.sentinel):
            # The sentinel is scratch test state, not campaign state —
            # losing it to a crash only makes the fault fire once more,
            # which is the point.
            with open(self.sentinel, "w") as handle:
                handle.write("failed once\n")
            if self.mode == "kill":
                os._exit(13)
            raise InjectedFault(
                f"injected transient fault (sentinel {self.sentinel})"
            )
        return [self.estimate] * self.num_cores


class CorruptingTrace(Iterator[TraceRecord]):
    """Wraps a trace; after ``good_records`` records either raises
    :class:`InjectedFault` (default) or yields one corrupt record with a
    negative gap and address (``mode="yield"``)."""

    def __init__(
        self,
        inner: TraceIterator,
        good_records: int,
        mode: str = "raise",
    ) -> None:
        if mode not in ("raise", "yield"):
            raise ValueError("mode must be 'raise' or 'yield'")
        self.inner = inner
        self.good_records = good_records
        self.mode = mode
        self._served = 0

    def __iter__(self) -> "CorruptingTrace":
        return self

    def __next__(self) -> TraceRecord:
        if self._served >= self.good_records:
            if self.mode == "raise":
                raise InjectedFault(
                    f"injected trace corruption after {self._served} records"
                )
            self._served += 1
            return TraceRecord(gap=-1, line_addr=-1, is_write=False)
        self._served += 1
        return next(self.inner)


@dataclass(frozen=True)
class TraceFaultMix(WorkloadMix):
    """A workload mix whose shared-run trace for ``fault_core`` corrupts
    after ``good_records`` records. Alone-run traces stay clean, so only
    the shared run of this mix fails."""

    fault_core: int = 0
    good_records: int = 100
    mode: str = "raise"

    def traces(self):
        traces = super().traces()
        traces[self.fault_core] = CorruptingTrace(
            traces[self.fault_core], self.good_records, self.mode
        )
        return traces

    @classmethod
    def wrap(
        cls,
        mix: WorkloadMix,
        fault_core: int = 0,
        good_records: int = 100,
        mode: str = "raise",
    ) -> "TraceFaultMix":
        return cls(
            name=mix.name,
            specs=mix.specs,
            seed=mix.seed,
            fault_core=fault_core,
            good_records=good_records,
            mode=mode,
        )


class EngineStallInjector:
    """Stops the event loop at ``at_cycle``: every event after it remains
    queued, simulated time silently clamps — exactly the hang shape the
    quantum watchdog exists for."""

    def __init__(self, at_cycle: int) -> None:
        self.at_cycle = at_cycle

    def attach(self, system: System) -> None:
        system.engine.schedule_at(self.at_cycle, system.engine.stop)


class SpinInjector:
    """From ``at_cycle`` on, re-schedules itself every cycle doing nothing,
    so simulated progress continues but a configurable number of wasted
    events per cycle burns wall-clock time; with ``forever=True`` (delay 0)
    the loop live-locks at ``at_cycle`` and only a wall-clock deadline can
    abort it."""

    def __init__(self, at_cycle: int, forever: bool = True) -> None:
        self.at_cycle = at_cycle
        self.forever = forever
        self._engine = None

    def attach(self, system: System) -> None:
        self._engine = system.engine
        self._engine.schedule_at(self.at_cycle, self._spin)

    def _spin(self) -> None:
        # delay 0: the engine never advances past at_cycle.
        self._engine.schedule(0 if self.forever else 1, self._spin)


class CounterCorruptionInjector:
    """Applies ``mutate(system)`` at ``at_cycle`` — e.g. bump a cache hit
    counter — to drill the invariant guards."""

    def __init__(self, at_cycle: int, mutate: Callable[[System], None]) -> None:
        self.at_cycle = at_cycle
        self.mutate = mutate
        self._system: Optional[System] = None

    def attach(self, system: System) -> None:
        self._system = system
        system.engine.schedule_at(self.at_cycle, self._fire)

    def _fire(self) -> None:
        self.mutate(self._system)


__all__ = [
    "CorruptingTrace",
    "CounterCorruptionInjector",
    "EngineStallInjector",
    "ExplodingModel",
    "FlakyModel",
    "InjectedFault",
    "ProcessKillerModel",
    "SpinInjector",
    "TraceFaultMix",
    "benign_model_factories",
    "exploding_model_factories",
    "flaky_model_factories",
    "flaky_node_model_factories",
    "process_killer_factories",
]
