"""Shared per-request interference accounting used by FST, PTCA and STFM.

These prior works estimate, for *each* memory request, how many cycles it
was delayed by other applications, and sum those into a per-application
interference-cycle total. Summed naively the total overcounts badly because
requests overlap, so — exactly as STFM introduced its *parallelism factor*
fudge — the per-request delays are divided by the application's measured
memory-level parallelism (time-averaged outstanding misses while any miss
is outstanding).

The paper's central argument is that this per-request approach remains
inaccurate under overlapped service even with the fudge factor; that
inaccuracy emerges here naturally rather than being injected.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.harness.system import System
from repro.mem.request import MemRequest


class MlpEstimator:
    """Time-averaged memory-level parallelism for one core."""

    __slots__ = ("count", "integral", "busy", "_last")

    def __init__(self) -> None:
        self.count = 0
        self.integral = 0.0  # integral of outstanding-miss count over time
        self.busy = 0  # cycles with >= 1 outstanding miss
        self._last = 0

    def _settle(self, now: int) -> None:
        if now > self._last:
            if self.count > 0:
                self.integral += self.count * (now - self._last)
                self.busy += now - self._last
            self._last = now

    def start(self, now: int) -> None:
        """A miss enters service at cycle ``now``."""
        self._settle(now)
        self.count += 1

    def end(self, now: int) -> None:
        """A miss leaves service at cycle ``now``."""
        self._settle(now)
        self.count -= 1

    def parallelism(self, now: int) -> float:
        """Average outstanding misses over miss-busy time (>= 1.0)."""
        self._settle(now)
        if self.busy <= 0:
            return 1.0
        return max(1.0, self.integral / self.busy)

    def reset(self, now: int) -> None:
        """Zero the averages at a quantum boundary; keep in-flight counts."""
        self._settle(now)
        self.integral = 0.0
        self.busy = 0


class PerRequestAccounting:
    """Per-core memory interference cycles + miss latency statistics."""

    def __init__(
        self,
        system: System,
        latency_filter: Optional[Callable[[MemRequest], bool]] = None,
        filter_interference: bool = False,
    ) -> None:
        """``latency_filter`` restricts latency statistics to a subset of
        requests (PTCA with a sampled ATS measures latencies only on
        requests mapping to sampled sets). With ``filter_interference``
        the per-request interference cycles are *also* only accumulated on
        filtered requests — the caller must scale them back up, as sampled
        PTCA does (Section 2.2: "counted and scaled accordingly")."""
        n = system.config.num_cores
        self.system = system
        self.latency_filter = latency_filter
        self.filter_interference = filter_interference and latency_filter is not None
        self.interference_cycles = [0.0] * n
        self.latency_count = [0] * n
        # Per-request alone-latency estimate: measured latency minus the
        # request's own attributed interference (the FST/PTCA mechanism).
        self.alone_latency_sum = [0.0] * n
        self._mlp = [MlpEstimator() for _ in range(n)]
        system.hierarchy.service_listeners.append(self._on_service)
        system.controller.completion_listeners.append(self._on_completion)

    def _on_service(self, core: int, is_hit: bool, is_start: bool, now: int) -> None:
        if is_hit:
            return
        if is_start:
            self._mlp[core].start(now)
        else:
            self._mlp[core].end(now)

    def _on_completion(self, request: MemRequest) -> None:
        if request.is_prefetch or request.is_write:
            return
        core = request.core
        now = self.system.engine.now
        in_sample = self.latency_filter is None or self.latency_filter(request)
        # STFM-style parallelism fudge factor: delays of overlapped requests
        # do not stall the core independently.
        parallelism = self._mlp[core].parallelism(now)
        if not self.filter_interference or in_sample:
            # Fractional by design: this is the model's float *estimate*
            # of stall cycles (attributed cycles scaled down by MLP), not
            # engine time — see the [0.0] initialisation above.
            self.interference_cycles[core] += (
                request.interference_cycles / parallelism  # lint: ignore[CYC001]
            )
        if in_sample:
            self.latency_count[core] += 1
            self.alone_latency_sum[core] += max(
                1.0, request.latency - request.interference_cycles
            )

    def parallelism(self, core: int) -> float:
        """Current MLP estimate for ``core`` (the STFM fudge factor)."""
        return self._mlp[core].parallelism(self.system.engine.now)

    def miss_busy_cycles(self, core: int) -> int:
        """Cycles with at least one outstanding miss — the hardware upper
        bound on interference cycles (a stall counter cannot increment
        more than once per cycle)."""
        mlp = self._mlp[core]
        mlp._settle(self.system.engine.now)
        return mlp.busy

    def avg_alone_miss_latency(self, core: int, default: float = 0.0) -> float:
        """The model's own estimate of the alone miss service time."""
        if self.latency_count[core] == 0:
            return default
        return self.alone_latency_sum[core] / self.latency_count[core]

    def reset(self) -> None:
        """Clear all per-quantum accumulators and the MLP averages."""
        n = len(self.interference_cycles)
        now = self.system.engine.now
        self.interference_cycles = [0.0] * n
        self.latency_count = [0] * n
        self.alone_latency_sum = [0.0] * n
        for mlp in self._mlp:
            mlp.reset(now)
