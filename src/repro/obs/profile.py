"""Opt-in nested wall-clock spans for the simulator's hot paths.

A :class:`StageProfiler` has one timing primitive, :meth:`~StageProfiler.timed`,
which wraps a callable so that every call is a ``time.perf_counter``
span. Spans nest: time spent inside an inner span counts only for the
inner span, so the exclusive seconds of all spans partition the
outermost spans' wall time.

:meth:`~StageProfiler.attach` (pass it via ``run_workload``'s
``system_hooks``) wraps three seams of a constructed
:class:`~repro.harness.system.System`:

* ``engine.drain`` — every :meth:`Engine.run` call on the system's own
  engine, which also counts the events each drain executed;
* ``hierarchy.access`` — the shared-LLC demand access path, by wrapping
  the bound method *and* re-pointing every core's captured
  ``hierarchy_access`` reference (cores bind it at construction);
* one span per quantum listener — model updates and policy decisions,
  labelled by owner (``AsmModel:asm``, ``AsmCachePolicy:asm-cache``).

A caller can wrap more: ``repro profile`` also times its whole
``run_workload`` call and its alone-run cache lookups, so its table
accounts for the whole run. ``stages`` keeps the inclusive timings;
:meth:`~StageProfiler.rows` and :meth:`~StageProfiler.table` report
exclusive seconds.

Profiling changes wall-clock behaviour only; simulated results are
bit-identical (the timers never touch simulation state).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple, TypeVar

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.harness.system import System

_T = TypeVar("_T")


class StageTiming:
    """Accumulated wall time and call count for one named span."""

    __slots__ = ("name", "calls", "seconds", "exclusive")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.exclusive = 0.0

    def add(self, seconds: float, inner: float) -> None:
        """Record one call of ``seconds``, ``inner`` of them in inner spans."""
        self.calls += 1
        self.seconds += seconds
        self.exclusive += seconds - inner


def _listener_label(listener: Callable[[], None], index: int) -> str:
    """A human-readable stage name for a quantum listener."""
    owner = getattr(listener, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", "")
        suffix = f":{name}" if isinstance(name, str) and name else ""
        return f"{type(owner).__name__}{suffix}"
    return getattr(listener, "__name__", f"listener{index}")


class StageProfiler:
    """Collects nested wall-clock spans for one run."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageTiming] = {}
        self.engine_events = 0
        # Seconds spent in finished inner spans of the innermost open span.
        self._inner = 0.0

    def timed(self, name: str, fn: Callable[..., _T]) -> Callable[..., _T]:
        """Wrap ``fn`` so that each call is one span of stage ``name``.

        The span's whole wall time is added to the stage's inclusive
        ``seconds``; the time spent in spans it encloses is left out of its
        ``exclusive`` seconds. A call that raises is timed too.
        """
        timing = self.stages.setdefault(name, StageTiming(name))

        def span(*args: Any, **kwargs: Any) -> _T:
            outer = self._inner
            self._inner = 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                timing.add(elapsed, self._inner)
                self._inner = outer + elapsed

        return span

    def attach(self, system: "System") -> None:
        """Instrument ``system``; pass as a ``system_hooks`` entry so all
        models and policies are already registered."""
        engine = system.engine
        run = engine.run

        def drain(*args: Any, **kwargs: Any) -> int:
            try:
                return run(*args, **kwargs)
            finally:
                self.engine_events += engine.events_executed

        engine.run = self.timed("engine.drain", drain)  # type: ignore[method-assign]
        access = self.timed("hierarchy.access", system.hierarchy.access)
        system.hierarchy.access = access  # type: ignore[method-assign]
        # Cores capture the bound method at construction; re-point them
        # or their accesses would bypass the timer entirely.
        for core in system.cores:
            core.hierarchy_access = access
        system.quantum_listeners[:] = [
            self.timed(_listener_label(listener, index), listener)
            for index, listener in enumerate(system.quantum_listeners)
        ]

    # -- reporting -------------------------------------------------------
    def rows(self) -> List[Tuple[str, int, float]]:
        """(stage, calls, exclusive seconds) rows, slowest first.

        The rows partition the outermost spans: their seconds sum to the
        wall time of the calls no other span encloses.
        """
        return sorted(
            ((t.name, t.calls, t.exclusive) for t in self.stages.values()),
            key=lambda row: -row[2],
        )

    def table(self) -> str:
        """Render the exclusive stage timings as an aligned text table."""
        rows = self.rows()
        total = sum(seconds for _, _, seconds in rows)
        lines = [f"{'stage':32s} {'calls':>10s} {'seconds':>10s} {'share':>7s}"]
        for name, calls, seconds in rows:
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{name:32s} {calls:>10d} {seconds:>10.4f} {share:>6.1%}"
            )
        drain = self.stages.get("engine.drain")
        if self.engine_events and drain is not None and drain.seconds > 0:
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
