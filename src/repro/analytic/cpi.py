"""PPT-style interval core model: miss rates → DRAM contention → CPI.

Closed-form counterpart of :mod:`repro.cpu.core` plus
:mod:`repro.mem.dram`/:mod:`repro.mem.controller`, solved as a damped
fixed point between per-core access rates and CPI. Per committed
instruction:

::

    CPI = CPI_exec + (1 - wf) · a · [ h·L_llc/olap_hit + m·stall_miss ]

* ``CPI_exec = (g + W) / (W · (g + 1))`` — the frontend charges
  ``(gap + issue_width) // issue_width`` cycles per trace record and a
  record carries ``g + 1`` instructions;
* ``a = 1/(g + 1)`` accesses per instruction, ``h``/``m`` the shared
  (or alone) LLC hit/miss split from :mod:`repro.analytic.llc`;
* ``wf`` the store fraction — stores retire through the store buffer
  and do not stall the commit stream;
* ``olap`` — the ROB window keeps ``window_size/(g+1)`` accesses in
  flight; misses are additionally capped by the MSHR count.

The per-miss stall has three parts, mirroring how the event tier
actually spends cycles:

1. **Service**: the row-buffer triad of
   :func:`repro.mem.dram.service_request` — row hit ``CAS``, otherwise
   ``tRP + tRCD + CAS`` (steady state leaves banks open on the wrong
   row) — plus the data burst. Row-hit probability is the core's own
   sequential-run fraction: FR-FCFS drains queued same-row requests
   back to back, so co-runners do *not* destroy row locality (the
   event tier confirms streaming cores keep ~80 % row hits under
   sharing). Overlapped across ``olap`` in-flight misses.
2. **Self-serialisation floor**: a bank stays busy through its data
   burst (``busy_until = completion``) and a sequential run stays in
   one row, so a streaming core's misses drain at one full service
   time apiece no matter how many MSHRs it holds.
3. **Cross-core blocking**: ``κ · Σ_{j≠i} u_j · batch_j · s_j`` — the
   expected wait behind co-runner ``j``'s FR-FCFS row batches, with
   ``u_j`` j's per-bank utilisation (writebacks included) and
   ``batch_j`` its in-flight batch size. This term is *not* divided by
   the overlap: batch jumps, epoch-priority preemption and write
   drains block the whole channel, which is exactly why event-tier
   overlap collapses under sharing. ``κ`` (:data:`CROSS_BLOCKING_KAPPA`)
   is the model's one calibration constant, fitted once against the
   event oracle on the default synthetic suite and pinned.

Determinism: the solver runs a fixed ``SOLVER_ROUNDS`` damped rounds —
no convergence test, no wall clock — so equal inputs give bit-equal
rates in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analytic.llc import alone_hit_rate, shared_hit_rates
from repro.analytic.reuse import ReuseProfile
from repro.config import SystemConfig

#: Fixed damped fixed-point rounds (determinism over adaptive stopping).
SOLVER_ROUNDS = 16

#: Calibration constant of the cross-core blocking term (see module
#: docstring, part 3). Fitted once against the event oracle on the
#: default 4-core synthetic suite; docs/fidelity.md documents the fit.
CROSS_BLOCKING_KAPPA = 0.6

#: Utilisation clamp keeping the bus waiting term finite when offered
#: load exceeds what the event tier would simply backpressure.
_MAX_UTILISATION = 0.95


@dataclass(frozen=True)
class CoreRates:
    """Converged steady-state rates for one core.

    ``cpi`` is cycles per committed instruction and ``hit_rate`` the
    core's LLC hit rate (shared, or alone from :func:`solve_alone`).
    """

    cpi: float
    hit_rate: float


def _cpi_exec(gap: float, issue_width: int) -> float:
    return (gap + issue_width) / (issue_width * (gap + 1.0))


def _overlap(gap: float, window_size: int) -> float:
    return max(1.0, window_size / (gap + 1.0))


def _batch(profile: ReuseProfile, config: SystemConfig) -> float:
    """In-flight miss batch size: window-limited, MSHR-capped."""
    return max(
        1.0,
        min(
            _overlap(profile.mean_gap, config.core.window_size),
            float(config.core.mshr_entries),
        ),
    )


def _service_time(profile: ReuseProfile, config: SystemConfig) -> float:
    """Expected bank occupancy of one request (issue to completion)."""
    dram = config.dram
    lines_per_row = max(1, dram.row_size_bytes // config.llc.line_size)
    p_row = profile.seq_frac * (1.0 - 1.0 / lines_per_row)
    return (
        p_row * dram.cas_latency
        + (1.0 - p_row) * (dram.trp + dram.trcd + dram.cas_latency)
        + dram.burst_time
    )


def _stalls(
    profiles: Sequence[ReuseProfile],
    miss_rates: Sequence[float],
    config: SystemConfig,
) -> List[float]:
    """Per-core stall cycles per miss; ``miss_rates`` are misses per
    cycle."""
    dram = config.dram
    n = len(profiles)
    services = [_service_time(p, config) for p in profiles]
    batches = [_batch(p, config) for p in profiles]
    # Per-bank utilisation per core, writeback traffic included.
    utils = [
        miss_rates[i]
        * (1.0 + profiles[i].write_frac)
        * services[i]
        / dram.total_banks
        for i in range(n)
    ]
    # Plain float adds, left to right, here and below: sum() compensates
    # float sums from Python 3.12 on, which would make the solution
    # depend on the interpreter's version.
    traffic = 0.0
    for i in range(n):
        traffic += miss_rates[i] * (1.0 + profiles[i].write_frac)
    bus_util = min(
        _MAX_UTILISATION, traffic * dram.burst_time / dram.channels
    )
    bus_wait = bus_util / (1.0 - bus_util) * dram.burst_time
    stalls: List[float] = []
    for i, profile in enumerate(profiles):
        co_runner_load = 0.0
        for j in range(n):
            if j != i:
                co_runner_load += utils[j] * batches[j] * services[j]
        blocking = CROSS_BLOCKING_KAPPA * co_runner_load
        overlapped = (config.llc.latency + services[i] + bus_wait) / batches[i]
        serial = (
            profile.seq_frac * services[i] * (1.0 + profile.write_frac)
        )
        stalls.append(max(overlapped, serial) + blocking)
    return stalls


def _cpi_of(
    profile: ReuseProfile,
    hit_rate: float,
    miss_stall: float,
    config: SystemConfig,
) -> float:
    gap = profile.mean_gap
    access_density = 1.0 / (gap + 1.0)
    olap_hit = _overlap(gap, config.core.window_size)
    read_frac = 1.0 - profile.write_frac
    stall = read_frac * access_density * (
        hit_rate * config.llc.latency / olap_hit
        + (1.0 - hit_rate) * miss_stall
    )
    return _cpi_exec(gap, config.core.issue_width) + stall


def solve_shared(
    profiles: Sequence[ReuseProfile], config: SystemConfig
) -> List[CoreRates]:
    """Fixed point of access rates ↔ shared hit rates ↔ CPI for all cores."""
    capacity = config.llc.num_lines
    n = len(profiles)
    hit_rates = [alone_hit_rate(p, capacity) for p in profiles]
    cpis = [
        _cpi_of(profiles[i], hit_rates[i], 0.0, config) for i in range(n)
    ]
    for _ in range(SOLVER_ROUNDS):
        rates = [
            (1.0 / profiles[i].instructions_per_access()) / cpis[i]
            for i in range(n)
        ]
        hit_rates = (
            shared_hit_rates(profiles, rates, capacity)
            if n > 1
            else [alone_hit_rate(profiles[0], capacity)]
        )
        miss_rates = [rates[i] * (1.0 - hit_rates[i]) for i in range(n)]
        stalls = _stalls(profiles, miss_rates, config)
        cpis = [
            0.5 * cpis[i]
            + 0.5 * _cpi_of(profiles[i], hit_rates[i], stalls[i], config)
            for i in range(n)
        ]
    return [CoreRates(cpi=cpis[i], hit_rate=hit_rates[i]) for i in range(n)]


def solve_alone(profile: ReuseProfile, config: SystemConfig) -> CoreRates:
    """The same fixed point for one core with the whole LLC to itself."""
    return solve_shared([profile], config)[0]


__all__ = [
    "CROSS_BLOCKING_KAPPA",
    "SOLVER_ROUNDS",
    "CoreRates",
    "solve_alone",
    "solve_shared",
]
