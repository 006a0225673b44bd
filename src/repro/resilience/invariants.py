"""Opt-in conservation-law checks for the simulated platform.

The simulator maintains several redundant views of the same events (the
functional cache counts hits, the hierarchy counts demand accesses, the
controller queues mirror the MSHR file, ASM's epoch counters subdivide the
access stream). Bugs and corrupted state break the *conservation laws*
relating those views long before they show up as wrong headline numbers.

:class:`InvariantChecker` attaches to a :class:`System` and validates at
every quantum boundary (before the models reset their counters):

* **engine time monotonicity** — the clock advanced since the last check;
* **cache conservation** — per core, demand hits + demand misses +
  secondary (MSHR-coalesced) misses equals the functional cache's
  hits + misses;
* **MSHR/queue consistency** — every queued read at the memory controller
  has a matching MSHR entry (no orphaned requests);
* **ASM epoch accounting** — for every attached :class:`AsmModel`, the
  Section 4 counters are consistent with the quantum counters and the
  epoch budget (epoch accesses never exceed quantum accesses, sampled ATS
  hits never exceed sampled ATS accesses, epochs granted never exceed the
  quantum's epoch budget);
* **ground truth sanity** — actual measured slowdowns stay above
  :data:`MIN_ACTUAL_SLOWDOWN` (interference can only slow applications
  down; values below ~1 signal a corrupted alone profile).

Violations raise :class:`InvariantViolation` naming the component and the
cycle, so a campaign can capture them as per-mix failures. Everything here
is opt-in (``run_workload(..., check_invariants=True)`` or the CLI's
``--check-invariants``): the checks walk the controller queues and cost a
few percent of run time.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.harness.system import System
from repro.models.asm import AsmModel

# Tolerance below the physical lower bound of 1.0: checkpoint-granularity
# noise in the alone profile can put a legitimate quantum slightly below 1.
MIN_ACTUAL_SLOWDOWN = 0.85


class InvariantViolation(AssertionError):
    """A simulation conservation law failed.

    ``component`` names the violated subsystem, ``cycle`` the simulated
    time of the check that caught it.
    """

    def __init__(self, component: str, cycle: int, message: str) -> None:
        super().__init__(f"[{component} @ cycle {cycle}] {message}")
        self.component = component
        self.cycle = cycle
        self.detail = message


class InvariantChecker:
    """Validates platform conservation laws at quantum boundaries."""

    def __init__(
        self,
        system: System,
        models: Sequence[object] = (),
    ) -> None:
        self.system = system
        self.asm_models: List[AsmModel] = [
            m for m in models if isinstance(m, AsmModel)
        ]
        self._last_time = -1
        self._attached = False

    def attach(self) -> None:
        """Register for quantum boundaries, ahead of the models' own
        listeners so counters are checked before they are reset."""
        if not self._attached:
            self._attached = True
            self.system.quantum_listeners.insert(0, self.check)

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run every structural invariant; raises on the first violation."""
        now = self.system.engine.now
        if now <= self._last_time:
            raise InvariantViolation(
                "engine",
                now,
                f"time did not advance (previous check at {self._last_time})",
            )
        self._check_cache_conservation(now)
        self._check_controller_consistency(now)
        for model in self.asm_models:
            self._check_asm_accounting(model, now)
        self._last_time = now

    def check_actual_slowdowns(
        self, slowdowns: Sequence[float], quantum_index: int
    ) -> None:
        """Ground-truth guard run by the harness once actual slowdowns for
        a quantum are computed (NaN means "no progress" and is skipped)."""
        now = self.system.engine.now
        for core, value in enumerate(slowdowns):
            if math.isnan(value):
                continue
            if value < MIN_ACTUAL_SLOWDOWN:
                raise InvariantViolation(
                    "ground-truth",
                    now,
                    f"core {core} actual slowdown {value:.3f} < "
                    f"{MIN_ACTUAL_SLOWDOWN} in quantum {quantum_index}: "
                    "shared run outpaced the alone run",
                )

    # ------------------------------------------------------------------
    def _check_cache_conservation(self, now: int) -> None:
        hierarchy = self.system.hierarchy
        llc = hierarchy.llc
        for core in range(self.system.config.num_cores):
            seen = (
                hierarchy.demand_accesses(core)
                + hierarchy.secondary_misses[core]
            )
            counted = llc.hits[core] + llc.misses[core]
            if seen != counted:
                raise InvariantViolation(
                    "shared_cache",
                    now,
                    f"core {core}: hierarchy saw {seen} demand accesses "
                    f"(hits {hierarchy.demand_hits[core]} + misses "
                    f"{hierarchy.demand_misses[core]} + secondary "
                    f"{hierarchy.secondary_misses[core]}) but the cache "
                    f"counted {counted} (hits {llc.hits[core]} + misses "
                    f"{llc.misses[core]})",
                )

    def _check_controller_consistency(self, now: int) -> None:
        hierarchy = self.system.hierarchy
        controller = self.system.controller
        for channel, queue in enumerate(controller.read_queues):
            for request in queue:
                if request.line_addr not in hierarchy.mshr:
                    raise InvariantViolation(
                        "memory_controller",
                        now,
                        f"channel {channel} holds a read for line "
                        f"{request.line_addr:#x} (core {request.core}) with "
                        "no matching MSHR entry: request leaked or MSHR "
                        "entry lost",
                    )

    def _check_asm_accounting(self, model: AsmModel, now: int) -> None:
        config = self.system.config
        epoch_budget = config.quantum_cycles // config.epoch_cycles + 1
        for core in range(config.num_cores):
            accesses = model._accesses[core]
            hits = model._hits[core]
            misses = model._misses[core]
            if hits + misses != accesses:
                raise InvariantViolation(
                    "asm",
                    now,
                    f"core {core}: quantum hits {hits} + misses {misses} "
                    f"!= accesses {accesses}",
                )
            epoch_accesses = model._epoch_hits[core] + model._epoch_misses[core]
            if epoch_accesses > accesses:
                raise InvariantViolation(
                    "asm",
                    now,
                    f"core {core}: epoch accesses {epoch_accesses} exceed "
                    f"quantum accesses {accesses}: epoch gating is broken",
                )
            sampled_acc = model._epoch_sampled_ats_accesses[core]
            if (
                model._epoch_sampled_ats_hits[core] > sampled_acc
                or model._epoch_sampled_shared_hits[core] > sampled_acc
            ):
                raise InvariantViolation(
                    "asm",
                    now,
                    f"core {core}: sampled ATS hits "
                    f"({model._epoch_sampled_ats_hits[core]} ATS / "
                    f"{model._epoch_sampled_shared_hits[core]} shared) "
                    f"exceed sampled accesses {sampled_acc}",
                )
        total_epochs = sum(model._epoch_count)
        if total_epochs > epoch_budget:
            raise InvariantViolation(
                "asm",
                now,
                f"{total_epochs} epochs granted this quantum, budget is "
                f"{epoch_budget} ({config.quantum_cycles} cycles / "
                f"{config.epoch_cycles}-cycle epochs)",
            )


__all__ = ["InvariantChecker", "InvariantViolation", "MIN_ACTUAL_SLOWDOWN"]
