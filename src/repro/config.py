"""System configuration objects for the simulated multi-core platform.

The defaults mirror Table 2 of the paper: 4-16 out-of-order cores with a
128-entry instruction window and 3-wide issue, a 1-4MB 16-way shared
last-level cache, and DDR3-1333 (10-10-10) main memory behind an FR-FCFS
memory controller.

Two Table 2 parameters are recorded but simulate nothing. No private L1
is simulated: each trace is the app's L1 miss stream (see
:mod:`repro.cpu.trace`), so ``SystemConfig.l1`` is only validated and
hashed into cache and store keys. The controller's queues have no cap,
so ``DramConfig.request_buffer_entries`` is read by nothing: a core's
demand reads are bounded only by its MSHRs, and writes issue only when
no read can, or once ``WRITE_DRAIN_WATERMARK`` of them are queued (see
:mod:`repro.mem.controller`). Both fields stay because the store keys
hash ``repr(config)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

CACHE_LINE_SIZE = 64
CACHE_LINE_BITS = 6


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the trace-driven out-of-order core model."""

    issue_width: int = 3
    window_size: int = 128
    mshr_entries: int = 32
    prefetcher_enabled: bool = False
    prefetch_degree: int = 4
    prefetch_distance: int = 24


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a set-associative cache."""

    size_bytes: int
    associativity: int
    latency: int
    line_size: int = CACHE_LINE_SIZE

    @cached_property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @cached_property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def validate(self) -> None:
        if self.size_bytes % (self.line_size * self.associativity):
            raise ValueError(
                "cache size must be a multiple of line_size * associativity"
            )
        num_sets = self.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError("number of sets must be a power of two")


@dataclass(frozen=True)
class DramConfig:
    """DDR3 timing parameters, expressed in CPU cycles.

    The paper models DDR3-1333 (10-10-10) behind a 5.3GHz core clock, i.e.
    one DRAM clock is sleved to 8 CPU cycles (5.3GHz / 666.5MHz ~= 8).
    The (10-10-10) triad is CL-tRCD-tRP in DRAM cycles.
    """

    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_size_bytes: int = 8192
    cpu_cycles_per_dram_cycle: int = 8
    cl_dram_cycles: int = 10
    trcd_dram_cycles: int = 10
    trp_dram_cycles: int = 10
    tras_dram_cycles: int = 24
    burst_dram_cycles: int = 4
    # Table 2's request buffer size. Read by nothing: the controller's
    # queues have no cap (see the module docstring).
    request_buffer_entries: int = 128
    # Refresh (optional; off by default so headline numbers match the
    # calibrated configuration): every tREFI the channel stalls for tRFC
    # and all row buffers close. DDR3 defaults: tREFI 7.8us, tRFC 160ns
    # (2Gb) at a 1.5ns DRAM clock.
    refresh_enabled: bool = False
    trefi_dram_cycles: int = 5200
    trfc_dram_cycles: int = 107

    # Derived CPU-cycle latencies are cached: they sit on the per-request
    # service path, and ``cached_property`` writes straight into the
    # instance ``__dict__``, which works on a frozen dataclass (fields,
    # repr, equality and hashing are unaffected).
    @cached_property
    def cas_latency(self) -> int:
        return self.cl_dram_cycles * self.cpu_cycles_per_dram_cycle

    @cached_property
    def trcd(self) -> int:
        return self.trcd_dram_cycles * self.cpu_cycles_per_dram_cycle

    @cached_property
    def trp(self) -> int:
        return self.trp_dram_cycles * self.cpu_cycles_per_dram_cycle

    @cached_property
    def tras(self) -> int:
        return self.tras_dram_cycles * self.cpu_cycles_per_dram_cycle

    @cached_property
    def burst_time(self) -> int:
        return self.burst_dram_cycles * self.cpu_cycles_per_dram_cycle

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def trefi(self) -> int:
        return self.trefi_dram_cycles * self.cpu_cycles_per_dram_cycle

    @property
    def trfc(self) -> int:
        return self.trfc_dram_cycles * self.cpu_cycles_per_dram_cycle


@dataclass(frozen=True)
class SystemConfig:
    """Full platform description used by :mod:`repro.harness.system`."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    # Table 2's private L1. Not simulated: the traces are L1 miss streams,
    # so this is only validated and hashed into cache and store keys.
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, associativity=4, latency=1
        )
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2 * 1024 * 1024, associativity=16, latency=20
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    # ASM / MISE epoch machinery (Section 5 "Parameters").
    quantum_cycles: int = 5_000_000
    epoch_cycles: int = 10_000
    ats_sampled_sets: int = 64
    # Cycles at the start of each epoch excluded from CAR_alone/RSR_alone
    # measurement: the backlog a stalled application accumulated while not
    # prioritised drains in a burst when its epoch begins, transiently
    # exceeding the steady-state alone rate. The paper's 10K-cycle epochs
    # at full scale amortise this; short scaled epochs need the explicit
    # exclusion (0 disables it — the paper-faithful setting).
    epoch_warmup_cycles: int = 0
    # Execution tier: "event" (the per-callback engine, the default and
    # the correctness oracle) or "analytic" (repro.analytic: closed-form
    # surrogate, no simulation at all — see docs/fidelity.md). Kept as the
    # last field so campaign-store fingerprints of pre-existing configs
    # are unchanged (see repro.resilience.faults.config_fingerprint).
    engine: str = "event"

    def with_cores(self, num_cores: int) -> "SystemConfig":
        return dataclasses.replace(self, num_cores=num_cores)

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        return dataclasses.replace(
            self, llc=dataclasses.replace(self.llc, size_bytes=size_bytes)
        )

    def with_quantum(self, quantum: int, epoch: int) -> "SystemConfig":
        """New quantum/epoch lengths; the epoch warm-up window is clamped
        to at most a fifth of the epoch so short-epoch sweeps stay valid."""
        return dataclasses.replace(
            self,
            quantum_cycles=quantum,
            epoch_cycles=epoch,
            epoch_warmup_cycles=min(self.epoch_warmup_cycles, epoch // 5),
        )

    def with_prefetcher(self, enabled: bool = True) -> "SystemConfig":
        return dataclasses.replace(
            self, core=dataclasses.replace(self.core, prefetcher_enabled=enabled)
        )

    def with_engine(self, engine: str) -> "SystemConfig":
        return dataclasses.replace(self, engine=engine)

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        self.l1.validate()
        self.llc.validate()
        if self.epoch_cycles <= 0 or self.quantum_cycles <= 0:
            raise ValueError("quantum and epoch lengths must be positive")
        if self.quantum_cycles % self.epoch_cycles:
            raise ValueError("quantum must be a whole number of epochs")
        if not 0 <= self.epoch_warmup_cycles < self.epoch_cycles:
            raise ValueError("epoch warmup must be shorter than the epoch")
        if self.engine not in ("event", "analytic"):
            raise ValueError(
                f"engine must be 'event' or 'analytic', got {self.engine!r}"
            )


DEFAULT_CONFIG = SystemConfig()


def scaled_config(num_cores: int = 4) -> SystemConfig:
    """The proportionally scaled platform used for the experiments.

    The paper simulates 100M cycles per run with a 2MB LLC and 5M-cycle
    quanta on a C++ cycle-level simulator. A pure-Python reproduction is
    ~10^3 slower, so experiments run on a system scaled down by 8x in both
    cache capacity and time, keeping every *ratio* the paper's phenomena
    depend on intact:

    * LLC 256KB (vs 2MB), still 16-way — same associativity and thus the
      same way-partitioning granularity;
    * quantum 1M cycles, epoch 5K cycles — Q/E = 200 epochs per quantum
      (paper: 500), still ~50 epochs per application on 4 cores;
    * ATS sampling 16 of 256 sets = 1/16 (paper: 64 of 2048 = 1/32);
    * DRAM timing is NOT scaled: real DDR3-1333 parameters, so the
      cache-miss-cost / hit-cost ratio matches real machines.

    Workload footprints in :mod:`repro.workloads.catalog` are calibrated to
    this cache size (see DESIGN.md, substitutions).
    """
    return SystemConfig(
        num_cores=num_cores,
        llc=CacheConfig(size_bytes=256 * 1024, associativity=16, latency=20),
        quantum_cycles=1_000_000,
        epoch_cycles=5_000,
        ats_sampled_sets=16,
        epoch_warmup_cycles=1_000,
    )
