"""ASM-Cache-Mem (Section 7.2): coordinated cache + bandwidth partitioning.

Runs ASM-Cache's slowdown-aware way partitioning, then conveys the
slowdowns *projected under the granted allocations* to the memory
controller, which partitions bandwidth (epoch-assignment probabilities)
proportionally to them, as in ASM-Mem.
"""

from __future__ import annotations

from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.policies.asm_cache import AsmCachePolicy
from repro.policies.base import AsmPolicy


class AsmCacheMemPolicy(AsmPolicy):
    name = "asm-cache-mem"

    def __init__(self, asm: AsmModel) -> None:
        super().__init__(asm)
        # The cache policy gates each quantum on confidence; a skip keeps
        # the previous projected slowdowns.
        self.cache_policy = AsmCachePolicy(asm)

    def attach(self, system: System) -> None:
        # Register only ourselves; we drive the cache policy manually so the
        # ordering (partition first, then bandwidth weights) is explicit.
        super().attach(system)
        self.cache_policy.system = system
        self.cache_policy.obs = system.obs

    def on_quantum_end(self) -> None:
        assert self.system is not None
        self.cache_policy.on_quantum_end()
        self.skipped_reallocations = self.cache_policy.skipped_reallocations
        projected = self.cache_policy.projected_slowdowns
        if projected and sum(projected) > 0:
            self.trace("reweight", weights=list(projected))
            self.system.set_epoch_weights(projected)
