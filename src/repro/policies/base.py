"""Policy interface: a policy attaches to a system and reconfigures shared
resources (cache partition, epoch probabilities) at each quantum boundary,
after the slowdown models have produced their estimates.

:class:`AsmPolicy` is the base of the policies that act on ASM's
per-quantum statistics (ASM-Cache, ASM-Mem, ASM-QoS, ASM-Cache-Mem): it
holds the ASM model, checks that the model is attached to the same system,
and gates each decision on the estimates' confidence."""

from __future__ import annotations

from typing import Any, Optional

from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.models.base import POLICY_CONFIDENCE_FLOOR
from repro.obs.bus import TraceBus
from repro.obs.events import POLICY


class Policy:
    """Base class for quantum-granularity resource managers."""

    name = "policy"

    def __init__(self) -> None:
        self.system: Optional[System] = None
        # Observability bus (repro.obs), inherited from the system at
        # attach(); None keeps every decision site a single predicate.
        self.obs: Optional[TraceBus] = None

    def attach(self, system: System) -> None:
        """Register on the system. Policies are attached *after* models so
        their quantum hook runs once fresh estimates are available."""
        self.system = system
        self.obs = system.obs
        system.quantum_listeners.append(self.on_quantum_end)

    def trace(self, kind: str, **data: Any) -> None:
        """Emit one POLICY trace event (``reallocation``/``reweight``/
        ``skip``) tagged with this policy's name; a no-op when tracing
        is disabled."""
        obs = self.obs
        if obs is not None and obs.mask & POLICY:
            assert self.system is not None
            obs.emit(
                self.system.engine.now, POLICY, kind,
                policy=self.name, **data,
            )

    def on_quantum_end(self) -> None:
        raise NotImplementedError

    @property
    def num_cores(self) -> int:
        assert self.system is not None
        return self.system.config.num_cores


class AsmPolicy(Policy):
    """A policy driven by an :class:`~repro.models.asm.AsmModel` attached
    to the same system (before the policy, so its estimates are fresh)."""

    def __init__(self, asm: AsmModel) -> None:
        super().__init__()
        self.asm = asm
        # Quanta where degraded telemetry suppressed a decision.
        self.skipped_reallocations = 0

    def attach(self, system: System) -> None:
        if self.asm.system is not system:
            raise ValueError("the AsmModel must be attached to the same system")
        super().attach(system)

    def low_confidence(self) -> bool:
        """Whether to skip this quantum's decision: any core's estimate
        confidence is below :data:`~repro.models.base.POLICY_CONFIDENCE_FLOOR`.

        Deciding on polluted statistics would thrash the partition or
        starve the wrong application, so the policy keeps its previous
        decision; the skip is counted and traced."""
        if any(
            s.confidence < POLICY_CONFIDENCE_FLOOR for s in self.asm.last_quantum
        ):
            self.skipped_reallocations += 1
            self.trace("skip", reason="low-confidence")
            return True
        return False
