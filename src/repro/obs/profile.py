"""Opt-in stage timers for the simulator's hot paths.

A :class:`StageProfiler` attaches to a constructed
:class:`~repro.harness.system.System` (pass it via ``run_workload``'s
``system_hooks``) and wraps three seams with ``time.perf_counter``
timers:

* ``engine.drain`` — every :meth:`Engine.run` call, via the engine's
  ``run_observer`` hook (one ``None`` check per run when disabled);
* ``hierarchy.access`` — the shared-LLC demand access path, by wrapping
  the bound method *and* re-pointing every core's captured
  ``hierarchy_access`` reference (cores bind it at construction);
* one stage per quantum listener — model updates and policy decisions,
  labelled by owner (``AsmModel:asm``, ``AsmCachePolicy:asm-cache``).

Stages nest: ``engine.drain`` is the envelope that contains the cache
accesses, and the quantum listeners run outside it. The rows and the
table report the drain *without* its cache accesses, so they partition
the shared run: their seconds sum to the full drain plus the listeners,
and the shares are shares of that shared-run time. ``stages`` keeps the
raw timings, the full drain included.

Profiling changes wall-clock behaviour only; simulated results are
bit-identical (the timers never touch simulation state).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.harness.system import System


class StageTiming:
    """Accumulated wall time and call count for one named stage."""

    __slots__ = ("name", "calls", "seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        """Record one timed call."""
        self.calls += 1
        self.seconds += seconds


def _listener_label(listener: Callable[[], None], index: int) -> str:
    """A human-readable stage name for a quantum listener."""
    owner = getattr(listener, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", "")
        suffix = f":{name}" if isinstance(name, str) and name else ""
        return f"{type(owner).__name__}{suffix}"
    return getattr(listener, "__name__", f"listener{index}")


class StageProfiler:
    """Collects per-stage wall-clock timings for one system's run."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageTiming] = {}
        self.engine_events = 0

    def stage(self, name: str) -> StageTiming:
        """The timing bucket for ``name``, creating it on first use."""
        timing = self.stages.get(name)
        if timing is None:
            timing = StageTiming(name)
            self.stages[name] = timing
        return timing

    # -- attachment ------------------------------------------------------
    def attach(self, system: "System") -> None:
        """Instrument ``system``; pass as a ``system_hooks`` entry so all
        models and policies are already registered."""
        self._attach_engine(system)
        self._attach_cache(system)
        self._attach_listeners(system)

    def _attach_engine(self, system: "System") -> None:
        drain = self.stage("engine.drain")

        def observe(events: int, seconds: float) -> None:
            drain.add(seconds)
            self.engine_events += events

        system.engine.run_observer = observe

    def _attach_cache(self, system: "System") -> None:
        hierarchy = system.hierarchy
        original = hierarchy.access
        timing = self.stage("hierarchy.access")

        def timed_access(
            core: int,
            line_addr: int,
            is_write: bool,
            on_complete: Optional[Callable[[int], None]],
        ) -> Optional[int]:
            start = perf_counter()
            try:
                return original(core, line_addr, is_write, on_complete)
            finally:
                timing.add(perf_counter() - start)

        hierarchy.access = timed_access  # type: ignore[method-assign]
        # Cores capture the bound method at construction; re-point them
        # or their accesses would bypass the timer entirely.
        for core_obj in system.cores:
            core_obj.hierarchy_access = timed_access

    def _attach_listeners(self, system: "System") -> None:
        wrapped: List[Callable[[], None]] = []
        for index, listener in enumerate(system.quantum_listeners):
            timing = self.stage(_listener_label(listener, index))
            wrapped.append(self._timed_listener(listener, timing))
        system.quantum_listeners[:] = wrapped

    @staticmethod
    def _timed_listener(
        listener: Callable[[], None], timing: StageTiming
    ) -> Callable[[], None]:
        def run() -> None:
            start = perf_counter()
            try:
                listener()
            finally:
                timing.add(perf_counter() - start)

        return run

    # -- reporting -------------------------------------------------------
    def rows(self) -> List[Tuple[str, int, float]]:
        """(stage, calls, seconds) rows, slowest first.

        The ``engine.drain`` row excludes the ``hierarchy.access`` time it
        contains, so the rows partition the shared run.
        """
        access = self.stages.get("hierarchy.access")
        inner = access.seconds if access is not None else 0.0
        return sorted(
            (
                (t.name, t.calls,
                 t.seconds - inner if t.name == "engine.drain" else t.seconds)
                for t in self.stages.values()
            ),
            key=lambda row: -row[2],
        )

    def table(self) -> str:
        """Render the stage timings as an aligned text table."""
        rows = self.rows()
        total = sum(seconds for _, _, seconds in rows)
        lines = [f"{'stage':32s} {'calls':>10s} {'seconds':>10s} {'share':>7s}"]
        for name, calls, seconds in rows:
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{name:32s} {calls:>10d} {seconds:>10.4f} {share:>6.1%}"
            )
        if self.engine_events:
            drain = self.stages.get("engine.drain")
            if drain is not None and drain.seconds > 0:
                rate = self.engine_events / drain.seconds
                lines.append(
                    f"engine events: {self.engine_events} "
                    f"({rate:,.0f} events/s inside the drain)"
                )
        return "\n".join(lines)


def profile_call(
    fn: Callable[[], Any], top: int = 20
) -> Tuple[Any, str]:
    """Run ``fn`` under :mod:`cProfile`; returns (result, stats text).

    The stats text lists the ``top`` functions by cumulative time —
    the function-level companion to the stage table.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buffer.getvalue()


__all__ = ["StageProfiler", "StageTiming", "profile_call"]
