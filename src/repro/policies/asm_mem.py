"""ASM-Mem (Section 7.2): slowdown-proportional bandwidth partitioning.

At the end of each quantum, every application's slowdown estimate from ASM
becomes its probability mass for epoch assignment in the next quantum:

::

    P(epoch -> A_i) = slowdown(A_i) / sum_k slowdown(A_k)

so more-slowed-down applications receive highest memory priority more
often. This is the reason ASM assigns epochs probabilistically rather than
round-robin in the first place (Section 4.2).
"""

from __future__ import annotations

from repro.policies.base import AsmPolicy


class AsmMemPolicy(AsmPolicy):
    name = "asm-mem"

    def on_quantum_end(self) -> None:
        assert self.system is not None
        if not self.asm.estimates_history:
            return
        # Reweighting epochs on polluted estimates would starve the wrong
        # application; keep the previous weights.
        if self.low_confidence():
            return
        slowdowns = self.asm.estimates_history[-1]
        self.trace("reweight", weights=list(slowdowns))
        self.system.set_epoch_weights(slowdowns)
