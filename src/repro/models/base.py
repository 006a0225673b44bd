"""Common machinery for online slowdown models.

A model attaches to a :class:`repro.harness.system.System`, registers for
the event streams it needs (LLC accesses, service intervals, DRAM
completions, epoch assignments) and produces one slowdown estimate per core
at each quantum boundary via :meth:`SlowdownModel.estimate_slowdowns`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.system import System
from repro.obs.bus import TraceBus
from repro.obs.events import GUARD, MODEL
from repro.telemetry import CounterBank

#: Policies skip a reallocation decision when any core's estimate
#: confidence falls below this floor. It must stay below SOFT_CONFIDENCE:
#: soft degradations (clamped denominators, missing epoch signal) occur in
#: perfectly healthy runs and must never change fault-free policy
#: behaviour — only hard telemetry faults may push confidence this low.
POLICY_CONFIDENCE_FLOOR = 0.75

#: Confidence of a quantum whose estimate needed a soft clamp/fallback.
SOFT_CONFIDENCE = 0.9

#: Per-quantum multiplicative decay while hard telemetry faults persist.
CONFIDENCE_DECAY = 0.5


class EstimateGuard:
    """Per-core graceful degradation for a model's slowdown estimates.

    Each quantum the model resolves its raw estimate together with the
    violations it observed:

    * *soft* violations (degenerate denominators, no epoch signal) are
      conditions a healthy run can produce — the numeric fallback the
      estimator always used is kept bit-for-bit, but the quantum is
      flagged with :data:`SOFT_CONFIDENCE`;
    * *hard* violations (telemetry fault flags, broken conservation laws
      such as ``hits > accesses``) are impossible without counter faults —
      the estimate is replaced by the last good quantum's value and the
      confidence decays by :data:`CONFIDENCE_DECAY` for every consecutive
      faulty quantum.
    """

    __slots__ = ("last_good", "confidence", "reasons", "_carry")

    def __init__(self, num_cores: int) -> None:
        self.last_good: List[float] = [1.0] * num_cores
        self.confidence: List[float] = [1.0] * num_cores
        self.reasons: List[Optional[str]] = [None] * num_cores
        self._carry: List[float] = [1.0] * num_cores

    def resolve(
        self,
        core: int,
        estimate: float,
        soft: List[str],
        hard: List[str],
    ) -> float:
        """Resolve ``core``'s estimate for the ending quantum."""
        if hard:
            self._carry[core] *= CONFIDENCE_DECAY
            self.confidence[core] = self._carry[core]
            self.reasons[core] = ";".join(hard)
            return self.last_good[core]
        self._carry[core] = 1.0
        self.last_good[core] = estimate
        if soft:
            self.confidence[core] = SOFT_CONFIDENCE
            self.reasons[core] = ";".join(soft)
        else:
            self.confidence[core] = 1.0
            self.reasons[core] = None
        return estimate


class OutstandingTracker:
    """Counts cycles during which at least one event is outstanding.

    This is the union semantics Table 1 specifies for ``epoch-hit-time`` /
    ``epoch-miss-time`` ("# cycles during which the application has at
    least one outstanding hit/miss"): overlapping requests do not double
    count. The ``gate`` restricts accumulation to the application's epochs.
    """

    __slots__ = ("count", "gate_open", "busy_cycles", "_last_time")

    def __init__(self, gate_open: bool = True) -> None:
        self.count: int = 0
        self.gate_open: bool = gate_open
        self.busy_cycles: int = 0
        self._last_time: int = 0

    def _settle(self, now: int) -> None:
        if self.gate_open and self.count > 0 and now > self._last_time:
            self.busy_cycles += now - self._last_time
        self._last_time = now

    def start(self, now: int) -> None:
        """One more event becomes outstanding at cycle ``now``."""
        self._settle(now)
        self.count += 1

    def end(self, now: int) -> None:
        """One outstanding event completes at cycle ``now``."""
        self._settle(now)
        if self.count <= 0:
            raise ValueError("end() without matching start()")
        self.count -= 1

    def set_gate(self, open_: bool, now: int) -> None:
        """Open/close the accumulation gate (epoch membership) at ``now``."""
        self._settle(now)
        self.gate_open = open_

    def read(self, now: int) -> int:
        """Busy cycles accumulated up to and including cycle ``now``."""
        self._settle(now)
        return self.busy_cycles

    def reset(self, now: int) -> None:
        """Zero the accumulator at a quantum boundary; keep outstanding state."""
        self._settle(now)
        self.busy_cycles = 0
        self._last_time = now


class SlowdownModel:
    """Base class: subclasses override the hooks they need."""

    name: str = "base"

    def __init__(self) -> None:
        self.system: Optional[System] = None
        self.estimates_history: List[List[float]] = []
        # Parallel to estimates_history: per-quantum confidence in [0, 1]
        # and the degradation reason (None while healthy) per core.
        self.confidence_history: List[List[float]] = []
        self.degraded_history: List[List[Optional[str]]] = []
        self.guard: Optional[EstimateGuard] = None
        self.bank: Optional[CounterBank] = None
        # Observability bus (repro.obs), inherited from the system at
        # attach(); None keeps every emit site a single predicate check.
        self.obs: Optional[TraceBus] = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, system: System) -> None:
        """Register listeners on the system. Subclasses must call super()."""
        self.system = system
        self.guard = EstimateGuard(system.config.num_cores)
        self.bank = CounterBank(
            system.config.num_cores, spec=system.telemetry, salt=self.name
        )
        self.obs = system.obs
        system.quantum_listeners.append(self._on_quantum)

    def _on_quantum(self) -> None:
        estimates = self.estimate_slowdowns()
        self.estimates_history.append(estimates)
        guard = self.guard
        if guard is not None:
            self.confidence_history.append(list(guard.confidence))
            self.degraded_history.append(list(guard.reasons))
        obs = self.obs
        if obs is not None and obs.mask & (MODEL | GUARD):
            self._emit_trace(obs, estimates, guard)
        self.reset_quantum()

    def _emit_trace(
        self,
        obs: TraceBus,
        estimates: List[float],
        guard: Optional[EstimateGuard],
    ) -> None:
        """Publish this quantum's estimates (MODEL) and any degradations
        (GUARD) to the trace bus. Called only when a category is enabled."""
        assert self.system is not None
        now = self.system.engine.now
        if obs.mask & MODEL:
            confidence = list(guard.confidence) if guard is not None else []
            degraded = list(guard.reasons) if guard is not None else []
            obs.emit(
                now,
                MODEL,
                "estimates",
                model=self.name,
                estimates=list(estimates),
                confidence=confidence,
                degraded=degraded,
                stats=self.trace_stats(),
            )
        if obs.mask & GUARD and guard is not None:
            for core, reason in enumerate(guard.reasons):
                if reason is not None:
                    obs.emit(
                        now,
                        GUARD,
                        "degraded",
                        model=self.name,
                        core=core,
                        reason=reason,
                        confidence=guard.confidence[core],
                    )

    # -- subclass API -----------------------------------------------------
    def estimate_slowdowns(self) -> List[float]:
        """Produce one slowdown estimate per core for the ending quantum."""
        raise NotImplementedError

    def reset_quantum(self) -> None:
        """Clear per-quantum state (long-lived tag state is kept)."""

    def trace_stats(self) -> Optional[List[Dict[str, float]]]:
        """Optional per-core stats for the MODEL trace event.

        Subclasses with a richer per-quantum snapshot (ASM's
        ``AsmQuantumStats``) return one JSON-ready dict per core —
        e.g. ``car_alone``/``car_shared`` — which the trace inspector
        renders next to the estimates. ``None`` omits the field."""
        return None

    # -- helpers ----------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Core count of the attached system."""
        assert self.system is not None
        return self.system.config.num_cores

    @property
    def now(self) -> int:
        """Current simulated cycle of the attached system's engine."""
        assert self.system is not None
        return self.system.engine.now

    @staticmethod
    def clamp_slowdown(value: float) -> float:
        """Clamp to [1, 50]: slowdowns outside it are estimation artefacts."""
        return min(max(value, 1.0), 50.0)
