"""Per-request interference accounting (FST, PTCA, STFM) and the
estimate FST and PTCA share.

These prior works estimate, for *each* memory request, how many cycles it
was delayed by other applications, and sum those into a per-application
interference-cycle total. Summed naively the total overcounts badly because
requests overlap, so — exactly as STFM introduced its *parallelism factor*
fudge — the per-request delays are divided by the application's measured
memory-level parallelism (time-averaged outstanding misses while any miss
is outstanding).

:class:`PerRequestAccounting` keeps those totals for FST, PTCA and STFM;
its miss-busy cycles are also STFM's shared stall time. All accountings of
one system read the same per-core MLP trackers (:class:`MissParallelism`),
since they watch the same miss stream.
:class:`PerRequestModel` is the estimate FST and PTCA share: the quantum
minus the memory interference cycles and a contention-miss excess. The two
differ only in how they find contention misses (a pollution filter or an
auxiliary tag store).

The paper's central argument is that this per-request approach remains
inaccurate under overlapped service even with the fudge factor; that
inaccuracy emerges here naturally rather than being injected.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.harness.system import System
from repro.mem.request import MemRequest
from repro.models.base import SlowdownModel


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


class MissParallelism:
    """One :class:`MlpEstimator` per core for a whole system.

    FST, PTCA and STFM track the MLP of the same miss stream, so every
    accounting of one system reads these trackers, fed by one service
    listener. An accounting rebases at its own reset instead of zeroing
    them: the integral is a float sum of integers, so the difference
    equals the sum since the reset exactly.
    """

    def __init__(self, system: System) -> None:
        self.trackers = [MlpEstimator() for _ in range(system.config.num_cores)]
        system.hierarchy.service_listeners.append(self._on_service)

    @classmethod
    def of(cls, system: System) -> "MissParallelism":
        """``system``'s trackers, made and registered on first use."""
        shared = system.miss_parallelism
        if shared is None:
            shared = system.miss_parallelism = cls(system)
        return shared

    def _on_service(self, core: int, is_hit: bool, is_start: bool, now: int) -> None:
        if is_hit:
            return
        if is_start:
            self.trackers[core].start(now)
        else:
            self.trackers[core].end(now)


class PerRequestAccounting:
    """Per-core memory interference cycles + miss latency statistics."""

    def __init__(
        self,
        system: System,
        latency_filter: Optional[Callable[[MemRequest], bool]] = None,
    ) -> None:
        """``latency_filter`` restricts the statistics to a subset of
        requests (PTCA with a sampled ATS observes only requests mapping
        to sampled sets): both the latencies and the per-request
        interference cycles are accumulated on filtered requests only, and
        the caller must scale the interference back up, as sampled PTCA
        does (Section 2.2: "counted and scaled accordingly")."""
        n = system.config.num_cores
        self.system = system
        self.latency_filter = latency_filter
        self.interference_cycles = [0.0] * n
        self.latency_count = [0] * n
        # Per-request alone-latency estimate: measured latency minus the
        # request's own attributed interference (the FST/PTCA mechanism).
        self.alone_latency_sum = [0.0] * n
        # The system's shared MLP trackers, and their integral and busy
        # cycles at this accounting's last reset.
        self._mlp = MissParallelism.of(system).trackers
        now = system.engine.now
        for mlp in self._mlp:
            mlp._settle(now)
        self._base_integral = [mlp.integral for mlp in self._mlp]
        self._base_busy = [mlp.busy for mlp in self._mlp]
        system.controller.completion_listeners.append(self._on_completion)

    def _parallelism(self, core: int, now: int) -> float:
        """MLP of ``core`` since this accounting's last reset (>= 1.0)."""
        mlp = self._mlp[core]
        mlp._settle(now)
        busy = mlp.busy - self._base_busy[core]
        if busy <= 0:
            return 1.0
        parallelism = (mlp.integral - self._base_integral[core]) / busy
        return parallelism if parallelism > 1.0 else 1.0

    def _on_completion(self, request: MemRequest) -> None:
        if request.is_prefetch or request.is_write:
            return
        if self.latency_filter is not None and not self.latency_filter(request):
            return
        core = request.core
        # STFM-style parallelism fudge factor: delays of overlapped requests
        # do not stall the core independently.
        parallelism = self._parallelism(core, self.system.engine.now)
        attributed = request.interference_cycles
        # Fractional by design: this is the model's float *estimate* of
        # stall cycles (attributed cycles scaled down by MLP), not engine
        # time — see the [0.0] initialisation above.
        self.interference_cycles[core] += attributed / parallelism
        self.latency_count[core] += 1
        alone = request.completion_time - request.arrival_time - attributed
        self.alone_latency_sum[core] += alone if alone > 1.0 else 1.0

    def parallelism(self, core: int) -> float:
        """Current MLP estimate for ``core`` (the STFM fudge factor)."""
        return self._parallelism(core, self.system.engine.now)

    def miss_busy_cycles(self, core: int) -> int:
        """Cycles with at least one outstanding miss — the hardware upper
        bound on interference cycles (a stall counter cannot increment
        more than once per cycle)."""
        mlp = self._mlp[core]
        mlp._settle(self.system.engine.now)
        return mlp.busy - self._base_busy[core]

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
        for core, mlp in enumerate(self._mlp):
            mlp._settle(now)
            self._base_integral[core] = mlp.integral
            self._base_busy[core] = mlp.busy


class PerRequestModel(SlowdownModel):
    """FST and PTCA: the quantum minus per-request interference cycles.

    A subclass finds contention misses its own way and reports them through
    :meth:`contention`; this base owns the :class:`PerRequestAccounting`,
    its ``interference_cycles`` and ``miss_busy`` externals, and the rest
    of the estimate.
    """

    def __init__(self) -> None:
        super().__init__()
        # Per-core alone miss latency estimated in the last quantum (the
        # Fig 6 latency-distribution study reads this after the run).
        self.last_alone_miss_latency: List[float] = []
        # The requests the accounting observes (its ``latency_filter``);
        # None observes every request.
        self.latency_filter: Optional[Callable[[MemRequest], bool]] = None

    def attach(self, system: System) -> None:
        """Hook the per-request accounting into ``system``."""
        super().attach(system)
        bank = self.bank
        assert bank is not None
        acct = PerRequestAccounting(system, self.latency_filter)
        self._accounting = acct
        self._interference = bank.external(
            "interference_cycles", lambda core: acct.interference_cycles[core]
        )
        self._miss_busy = bank.external(
            "miss_busy", lambda core: acct.miss_busy_cycles(core)
        )

    def contention(self, core: int) -> Tuple[float, float, List[str]]:
        """``core``'s contention misses this quantum, the factor its
        memory interference cycles are scaled by, and the hard violations
        its own counters show."""
        raise NotImplementedError

    def estimate_slowdowns(self) -> List[float]:
        """Per-core slowdown from summed per-request delay cycles."""
        assert self.system is not None
        assert self.bank is not None and self.guard is not None
        bank = self.bank
        guard = self.guard
        acct = self._accounting
        quantum = self.system.config.quantum_cycles
        hit_latency = float(self.system.config.llc.latency)
        estimates: List[float] = []
        self.last_alone_miss_latency = [
            acct.avg_alone_miss_latency(core, default=float("nan"))
            for core in range(self.num_cores)
        ]
        for core in range(self.num_cores):
            contention, memory_scale, hard = self.contention(core)
            interference_raw = self._interference.read(core)
            miss_busy = self._miss_busy.read(core)
            # Each contention miss is charged its estimated *alone* miss
            # cost over a hit; the excess overlaps like any other miss, so
            # the same parallelism correction applies.
            avg_alone_miss = acct.avg_alone_miss_latency(core, default=hit_latency)
            cache_excess = (
                contention
                * max(0.0, avg_alone_miss - hit_latency)
                / acct.parallelism(core)
            )
            interference = interference_raw * memory_scale + cache_excess
            # A hardware interference counter increments at most once per
            # cycle with an outstanding miss.
            interference = min(interference, miss_busy)

            soft: List[str] = []
            alone_time = quantum - interference
            if alone_time <= 0:
                alone_time = max(1.0, 0.02 * quantum)
                soft.append("degenerate-denominator")
            estimate = self.clamp_slowdown(quantum / alone_time)

            if interference_raw < 0 or miss_busy < 0:
                hard.append("negative-interference")
            hard.extend(bank.collect_flags(core))
            estimates.append(guard.resolve(core, estimate, soft, hard))
        return estimates

    def reset_quantum(self) -> None:
        """Reset the counters and the accounting."""
        assert self.bank is not None
        self.bank.reset()
        self._accounting.reset()
