"""PTCA [14]: per-thread cycle accounting.

Like FST, PTCA subtracts per-request interference cycles from the shared
execution time, but identifies contention misses with a per-application
auxiliary tag store instead of a pollution filter. With a *sampled* ATS
(the practical configuration), contention misses and their latencies are
observed only on requests mapping to sampled sets and scaled up — the
scaling of noisy per-request latencies is what makes sampled PTCA the least
accurate model in the paper's Figure 3 (40.4% error).

The alone-time estimate is the one PTCA shares with FST
(:class:`~repro.models.perrequest.PerRequestModel`). The sampled counters
are registered as ``kind="ats"`` in the model's
:class:`~repro.telemetry.counters.CounterBank`, making them eligible for
set-sample corruption faults; implausible samples (contention exceeding
sampled accesses, more sampled than total accesses) trip the hard
degradation path of :class:`~repro.models.base.EstimateGuard`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.auxtag import AuxiliaryTagStore
from repro.harness.system import System
from repro.mem.request import MemRequest
from repro.models.perrequest import PerRequestModel


class PtcaModel(PerRequestModel):
    """PTCA prior-work baseline: per-request delay + cache-aware ATS."""

    name = "ptca"

    def __init__(self, sampled_sets: Optional[int] = None) -> None:
        super().__init__()
        self.sampled_sets = sampled_sets
        self.ats: List[AuxiliaryTagStore] = []
        if sampled_sets:
            # With sampling, PTCA can only observe requests to sampled
            # sets: both their latencies and their interference cycles are
            # measured on the sample and scaled up (Section 2.2).
            self.latency_filter = self._request_is_sampled

    def attach(self, system: System) -> None:
        """Hook the ATS and per-request accounting into ``system``."""
        super().attach(system)
        n = system.config.num_cores
        bank = self.bank
        assert bank is not None
        self.ats = [
            AuxiliaryTagStore(system.config.llc, self.sampled_sets) for _ in range(n)
        ]
        self._sampled_contention = bank.vec("sampled_contention", kind="ats")
        self._sampled_accesses = bank.vec("sampled_accesses", kind="ats")
        self._total_accesses = bank.vec("total_accesses")
        system.hierarchy.access_listeners.append(self._on_access)

    def _request_is_sampled(self, request: MemRequest) -> bool:
        ats = self.ats[request.core]
        set_index = request.line_addr % ats.num_sets
        return set_index % ats.sample_stride == 0

    def _on_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        # ``CounterVec.add`` inlined, as in ASM's access path.
        self._total_accesses.values[core] += 1
        outcome = self.ats[core].access(line_addr)
        if not outcome.sampled:
            return
        self._sampled_accesses.values[core] += 1
        if not hit and outcome.hit:
            self._sampled_contention.values[core] += 1

    def contention(self, core: int) -> Tuple[float, float, List[str]]:
        """The ATS's sampled contention misses scaled to every access; a
        sampled ATS scales memory interference by the same factor."""
        sampled_contention = self._sampled_contention.read(core)
        sampled_accesses = self._sampled_accesses.read(core)
        total_accesses = self._total_accesses.read(core)
        if sampled_accesses:
            scale = total_accesses / sampled_accesses
        else:
            scale = 1.0
        hard: List[str] = []
        if (
            sampled_contention > sampled_accesses
            or sampled_accesses > total_accesses
        ):
            hard.append("ats-sample-implausible")
        memory_scale = scale if self.sampled_sets else 1.0
        return sampled_contention * scale, memory_scale, hard

    def reset_quantum(self) -> None:
        """Reset counters and accounting; the ATS keeps its learned tags."""
        super().reset_quantum()
        for ats in self.ats:
            ats.reset_stats()
