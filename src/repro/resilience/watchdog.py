"""Watchdogs for hung or silently-stalled quanta.

:class:`repro.engine.Engine.run` clamps simulation time to ``until`` when
the event queue drains early, which silently converts a dead simulation
(an exhausted trace, a scheduler that stopped issuing, a component that
called :meth:`Engine.stop`) into a quantum full of fictitious idle cycles.
:class:`QuantumWatchdog` turns both failure shapes into diagnosable
exceptions:

* a **wall-clock budget** per quantum, enforced inside the event loop
  (:class:`repro.engine.DeadlineExceeded`);
* a **stall check** at every quantum boundary: the engine queue must not
  have drained while cores still had work, the engine must not have been
  stopped mid-quantum, and at least one unfinished core must have
  committed instructions.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence


class WatchdogStall(RuntimeError):
    """A quantum made no forward progress (dead event queue or dead cores).

    ``diagnosis`` carries the per-core evidence so a :class:`RunFailure`
    record preserves what the simulation looked like when it died.
    """

    def __init__(self, message: str, diagnosis: Optional[dict] = None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis or {}


class QuantumWatchdog:
    """Per-quantum liveness guard used by ``run_workload``.

    ``wall_clock_budget_s`` bounds the real time one quantum may take
    (``None`` disables the wall-clock guard; the stall check always runs).
    """

    def __init__(self, wall_clock_budget_s: Optional[float] = None) -> None:
        self.wall_clock_budget_s = wall_clock_budget_s

    def next_deadline(self) -> Optional[float]:
        """Absolute monotonic deadline for the quantum about to run."""
        if self.wall_clock_budget_s is None:
            return None
        return time.monotonic() + self.wall_clock_budget_s

    def check_quantum(
        self,
        system,
        prev_instructions: Sequence[int],
        instructions: Sequence[int],
        quantum_index: int,
    ) -> None:
        """Raise :class:`WatchdogStall` if the quantum that just ended was
        dead. A core that legitimately finished its trace is not a stall."""
        engine = system.engine
        finished = [core.finished for core in system.cores]
        if all(finished):
            return
        progressed = [
            done > prev
            for prev, done in zip(prev_instructions, instructions)
        ]
        diagnosis = self._diagnose(
            system, quantum_index, finished, prev_instructions, instructions
        )
        if engine.stopped_early:
            raise WatchdogStall(
                f"engine was stopped mid-quantum {quantum_index} at cycle "
                f"{engine.now}; simulated time was clamped",
                diagnosis,
            )
        if engine.drained_early:
            raise WatchdogStall(
                f"event queue drained before the end of quantum "
                f"{quantum_index} (cycle {engine.now}) with unfinished "
                f"cores; simulated time was clamped",
                diagnosis,
            )
        if not any(p for p, f in zip(progressed, finished) if not f):
            raise WatchdogStall(
                f"no core committed any instruction during quantum "
                f"{quantum_index} (cycle {engine.now}): the simulation is "
                "stalled",
                diagnosis,
            )

    @staticmethod
    def _diagnose(
        system,
        quantum_index: int,
        finished: List[bool],
        prev_instructions: Sequence[int],
        instructions: Sequence[int],
    ) -> dict:
        return {
            "quantum": quantum_index,
            "cycle": system.engine.now,
            "pending_events": system.engine.pending_events,
            "finished": list(finished),
            "committed_delta": [
                done - prev
                for prev, done in zip(prev_instructions, instructions)
            ],
            "inflight_misses": [core.inflight_misses for core in system.cores],
            "outstanding_reads": [
                system.controller.outstanding_reads(core)
                for core in range(system.config.num_cores)
            ],
        }


__all__ = ["QuantumWatchdog", "WatchdogStall"]
