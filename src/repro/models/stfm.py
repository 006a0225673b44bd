"""STFM [46]: stall-time fair memory scheduling's slowdown estimator.

STFM estimates slowdown as the ratio of shared to alone memory stall time,
computing the alone stall time by subtracting per-request interference
cycles (with a parallelism fudge factor) from the measured shared stall
time. It predates shared-cache awareness entirely; included as a secondary
baseline and for the repo's completeness.

The shared stall time is the accounting's miss-busy time: the cycles with
at least one outstanding miss. Stall and interference counters are
sampled through the model's :class:`~repro.telemetry.counters.CounterBank`;
see :class:`~repro.models.base.EstimateGuard` for the degradation
semantics.
"""

from __future__ import annotations

from typing import List

from repro.harness.system import System
from repro.models.base import SlowdownModel
from repro.models.perrequest import PerRequestAccounting


class StfmModel(SlowdownModel):
    """STFM prior-work baseline: stall-time fraction with MLP fudge."""

    name = "stfm"

    def attach(self, system: System) -> None:
        """Hook per-request accounting into ``system``."""
        super().attach(system)
        bank = self.bank
        assert bank is not None
        acct = PerRequestAccounting(system)
        self._accounting = acct
        # The shared stall time is the accounting's miss-busy time; the
        # name stays "stall_cycles" because fault draws are keyed by it.
        self._stall_sample = bank.external(
            "stall_cycles", lambda core: acct.miss_busy_cycles(core)
        )
        self._interference = bank.external(
            "interference_cycles", lambda core: acct.interference_cycles[core]
        )

    def estimate_slowdowns(self) -> List[float]:
        """Per-core STFM slowdown from the stalled-time fraction."""
        assert self.system is not None
        assert self.bank is not None and self.guard is not None
        bank = self.bank
        guard = self.guard
        quantum = self.system.config.quantum_cycles
        estimates: List[float] = []
        for core in range(self.num_cores):
            shared_stall = self._stall_sample.read(core)
            interference = self._interference.read(core)
            alone_stall = max(0.0, shared_stall - interference)

            soft: List[str] = []
            compute = quantum - shared_stall
            alone_time = compute + alone_stall
            if alone_time <= 0:
                alone_time = max(1.0, 0.02 * quantum)
                soft.append("degenerate-denominator")
            estimate = self.clamp_slowdown(quantum / alone_time)

            hard: List[str] = []
            if shared_stall > quantum or shared_stall < 0 or interference < 0:
                hard.append("stall-exceeds-quantum")
            hard.extend(bank.collect_flags(core))
            estimates.append(guard.resolve(core, estimate, soft, hard))
        return estimates

    def reset_quantum(self) -> None:
        """Reset the accounting, stall cycles included."""
        self._accounting.reset()
