"""MISE [66]: memory-interference-only slowdown estimation.

MISE observes that a memory-bound application's performance is proportional
to the rate at which its *main memory* requests are served, and estimates
slowdown as the ratio of alone and shared request service rates, measuring
the alone rate during highest-priority epochs. It shares ASM's epoch
machinery but is blind to shared-cache capacity interference — the paper's
Section 6.4 comparison (MISE 22% error vs ASM 9.9%) isolates exactly that.

All counters are read through the model's
:class:`~repro.telemetry.counters.CounterBank` and validated (epoch reads
cannot exceed quantum reads, queueing deltas cannot be negative); see
:class:`~repro.models.base.EstimateGuard` for the degradation semantics.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.harness.system import System
from repro.mem.request import MemRequest
from repro.models.base import SlowdownModel


class MiseModel(SlowdownModel):
    """MISE prior-work baseline: request-service-rate ratio, memory only."""

    name = "mise"

    def attach(self, system: System) -> None:
        """Hook epoch ownership and request-rate counters into ``system``."""
        super().attach(system)
        bank = self.bank
        assert bank is not None
        self._reads = bank.vec("reads")
        self._epoch_reads = bank.vec("epoch_reads")
        self._epoch_count = bank.vec("epoch_count")
        controller = system.controller
        self._queueing = bank.external(
            "queueing_cycles", lambda core: controller.queueing_cycles[core]
        )
        self._queueing.rebase()
        self._measuring = -1
        self._epoch_owners: Tuple[int, int] = (-1, -1)
        system.controller.completion_listeners.append(self._on_completion)
        system.epoch_listeners.append(self._on_epoch)
        system.measure_listeners.append(self._on_measure)

    def _on_completion(self, request: MemRequest) -> None:
        if request.is_prefetch or request.is_write:
            return
        core = request.core
        self._reads.add(core)
        if self._measuring == core:
            self._epoch_reads.add(core)

    def _on_epoch(self, owner: int) -> None:
        assert self.bank is not None
        attributed = self.bank.attribute_epoch(owner)
        self._epoch_owners = (owner, attributed)
        self._epoch_count.add(attributed)
        self._measuring = -1

    def _on_measure(self, owner: int) -> None:
        true_owner, attributed = self._epoch_owners
        if owner == true_owner:
            owner = attributed
        self._measuring = owner

    def estimate_slowdowns(self) -> List[float]:
        """Per-core MISE slowdown (alone over shared request service rate)."""
        assert self.system is not None
        assert self.bank is not None and self.guard is not None
        bank = self.bank
        guard = self.guard
        config = self.system.config
        quantum = config.quantum_cycles
        epochs_on = self.system.epochs_enabled
        estimates: List[float] = []
        # Only the post-warm-up portion of each epoch is measured.
        epoch_len = config.epoch_cycles - config.epoch_warmup_cycles
        for core in range(self.num_cores):
            reads = self._reads.read(core)
            epoch_reads = self._epoch_reads.read(core)
            epoch_count = self._epoch_count.read(core)
            queueing = self._queueing.delta(core)
            prioritized = epoch_count * epoch_len

            soft: List[str] = []
            if reads == 0 or prioritized == 0 or epoch_reads == 0:
                if epochs_on and reads > 0:
                    soft.append("no-epoch-signal")
                estimate = 1.0
            else:
                rsr_shared = reads / quantum
                denom = prioritized - queueing
                if denom <= 0:
                    denom = max(1.0, 0.05 * prioritized)
                    soft.append("degenerate-denominator")
                rsr_alone = epoch_reads / denom
                estimate = self.clamp_slowdown(rsr_alone / rsr_shared)

            hard: List[str] = []
            if epoch_reads > reads:
                hard.append("epoch-exceeds-quantum")
            if queueing < 0:
                hard.append("negative-queueing")
            hard.extend(bank.collect_flags(core))
            estimates.append(guard.resolve(core, estimate, soft, hard))
        return estimates

    def reset_quantum(self) -> None:
        """Reset counters and rebase the queueing estimator."""
        assert self.bank is not None
        self.bank.reset()
        self._queueing.rebase()
