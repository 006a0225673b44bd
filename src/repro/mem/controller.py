"""The memory controller.

Owns per-channel read/write queues, drives the DDR3 timing model through a
pluggable scheduling policy, and maintains the instrumentation every
slowdown model in the paper consumes:

* **Epoch priority** (:attr:`priority_core`): requests of one application
  can be given highest priority, the mechanism MISE/ASM/ASM-Mem use to
  emulate alone-run memory service (Section 3.2, step 1).
* **Queueing cycles** (Section 4.3): cycles during which the highest-
  priority application has an outstanding request while the previously
  issued command belonged to another application.
* **Per-request interference attribution**: each read accumulates the
  cycles it waited behind other cores' bank/bus occupancy plus row-conflict
  penalties caused by other cores. This is exactly the per-request signal
  FST/PTCA/STFM-style accounting consumes — and the paper argues is
  unreliable under overlapped service.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import DramConfig
from repro.engine import Engine
from repro.mem.dram import Channel, DramMapping, service_request
from repro.mem.request import MemRequest
from repro.mem.schedulers import FrFcfsScheduler, ParbsScheduler, Scheduler

CompletionListener = Callable[[MemRequest], None]

# Write queue occupancy beyond which writes are drained ahead of reads.
WRITE_DRAIN_WATERMARK = 64


def _oldest(queue: List[MemRequest], core: int) -> Optional[MemRequest]:
    """``core``'s oldest request in ``queue``: the earliest arrival, the
    first in queue order among equals."""
    oldest = None
    for request in queue:
        if request.core == core and (
            oldest is None or request.arrival_time < oldest.arrival_time
        ):
            oldest = request
    return oldest


class MemoryController:
    """Per-channel queues + scheduler + DDR3 timing."""

    def __init__(
        self,
        engine: Engine,
        config: DramConfig,
        num_cores: int,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.num_cores = num_cores
        self.scheduler = scheduler or FrFcfsScheduler()
        self.mapping = DramMapping(config)
        self.channels: List[Channel] = [
            Channel(self.mapping.banks_per_channel) for _ in range(config.channels)
        ]
        self.read_queues: List[List[MemRequest]] = [
            [] for _ in range(config.channels)
        ]
        self.write_queues: List[List[MemRequest]] = [
            [] for _ in range(config.channels)
        ]
        if isinstance(self.scheduler, ParbsScheduler):
            self.scheduler.register_queues(self.read_queues)
        # Waiting requests per bank, kept beside the flat queues so a wake
        # can tell which free banks have work without scanning a queue.
        # The flat queues stay the one source of request order.
        banks = self.mapping.banks_per_channel
        self._bank_reads = [[0] * banks for _ in range(config.channels)]
        self._bank_writes = [[0] * banks for _ in range(config.channels)]
        self._wake_scheduled = [False] * config.channels
        # Issue-path constants and per-channel issue thunks, precomputed so
        # the per-request path neither re-derives DDR timing nor allocates
        # a fresh closure on every wake.
        self._conflict_penalty = config.trp + config.trcd
        self._burst = config.burst_time
        self._issue_thunks = [
            (lambda ch=ch: self._issue(ch)) for ch in range(config.channels)
        ]

        self.priority_core: int = -1
        # Core whose queueing cycles are being accounted (normally the
        # priority core; decoupled during epoch warm-up windows).
        self.accounting_core: int = -1
        # Per-core counters.
        self.reads_issued = [0] * num_cores
        self.queueing_cycles = [0] * num_cores
        self._last_account_time = [0] * config.channels
        self.completion_listeners: List[CompletionListener] = []
        if config.refresh_enabled:
            self.engine.schedule(config.trefi, self._refresh)

    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:
        """Accept a new request; timing fields are filled as it is served."""
        channel, bank, row = self.mapping.locate(request.line_addr)
        request.channel = channel
        request.bank = bank
        request.row = row
        if request.is_write:
            self.write_queues[channel].append(request)
            self._bank_writes[channel][bank] += 1
        else:
            self.read_queues[channel].append(request)
            self._bank_reads[channel][bank] += 1
        self._wake(channel)

    def set_priority_core(self, core: int) -> None:
        """Give ``core``'s requests highest priority (-1 disables).

        Settles queueing accounting first so counted cycles are attributed
        to the application that was prioritised while they elapsed.
        """
        for channel in range(self.config.channels):
            self._account_queueing(channel, self.engine.now)
        self.priority_core = core
        self.accounting_core = core

    def set_accounting_core(self, core: int) -> None:
        """Restrict queueing-cycle accounting to ``core`` (-1 disables)
        without changing scheduling priority — used to exclude epoch
        warm-up windows from the Section 4.3 correction."""
        for channel in range(self.config.channels):
            self._account_queueing(channel, self.engine.now)
        self.accounting_core = core

    def outstanding_reads(self, core: int) -> int:
        return sum(
            1 for q in self.read_queues for r in q if r.core == core
        )

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """All-bank refresh on every channel: busy for tRFC, rows closed.

        Modelled at channel granularity (all ranks refresh together), which
        is the common auto-refresh configuration."""
        now = self.engine.now
        done = now + self.config.trfc
        for channel_idx, channel in enumerate(self.channels):
            for bank in channel.banks:
                bank.busy_until = max(bank.busy_until, done)
                bank.open_row = None
                bank.last_opener = -1
            if self.read_queues[channel_idx] or self.write_queues[channel_idx]:
                self.engine.schedule_at(done, lambda ch=channel_idx: self._wake(ch))
        self.engine.schedule(self.config.trefi, self._refresh)

    def _wake(self, channel: int) -> None:
        if not self._wake_scheduled[channel]:
            self._wake_scheduled[channel] = True
            self.engine.schedule(0, self._issue_thunks[channel])

    def _account_queueing(self, channel_idx: int, now: int) -> None:
        """Accrue Section 4.3 queueing cycles over the window since the last
        accounting point: a cycle is a queueing cycle if a request from the
        highest-priority application is outstanding and the previous command
        issued by the controller came from another application (the paper's
        literal definition). This captures all the residual interference a
        non-preemptive controller leaves — bank occupancy, bus bursts and
        write drains from other applications."""
        start = self._last_account_time[channel_idx]
        self._last_account_time[channel_idx] = now
        if now <= start:
            return
        core = self.accounting_core
        if core < 0:
            return
        channel = self.channels[channel_idx]
        if channel.last_issued_core in (-1, core):
            return
        oldest = _oldest(self.read_queues[channel_idx], core)
        if oldest is None or oldest.arrival_time >= now:
            return
        # A wait behind the application's *own* in-flight request on the
        # same bank is intrinsic (an alone run would wait too), not
        # interference — do not count it as a queueing cycle.
        bank = channel.banks[oldest.bank]
        if bank.busy_until > start and bank.current_core == core:
            return
        self.queueing_cycles[core] += now - max(start, oldest.arrival_time)

    def _issue(self, channel_idx: int) -> None:
        """One wake of ``channel_idx``: issue until no free bank has work.

        Bank readiness is worked out once, from the per-bank waiting
        counts, and a wake whose free banks have no work returns before
        any queue scan. Otherwise one pass over the read queue lists the
        ready reads, the priority core's among them, and each core's
        oldest waiting read; the ready writes are listed once they are
        needed. An issue keeps its bank busy past ``now`` and changes no
        other bank, so each issue only drops its bank's entries. The
        candidates are the ready writes while the write queue is at
        ``WRITE_DRAIN_WATERMARK``, else the ready reads (the priority
        core's alone, if it has any), else the ready writes; the scheduler
        picks one of them.

        Each issue charges other cores' *oldest* waiting reads for its
        resource occupancy, mirroring STFM-style hardware that tracks one
        stalled request per thread per cycle: full occupancy on a bank
        match, one data burst otherwise (bus serialisation). It also
        charges the issued request for a row conflict another core caused.
        """
        self._wake_scheduled[channel_idx] = False
        now = self.engine.now
        channel = self.channels[channel_idx]
        self._account_queueing(channel_idx, now)
        self.scheduler.update(now, self.reads_issued)

        banks = channel.banks
        bank_reads = self._bank_reads[channel_idx]
        bank_writes = self._bank_writes[channel_idx]
        ready_reads = ready_writes = 0
        index = 0
        for bank_state in banks:
            if bank_state.busy_until <= now:
                ready_reads += bank_reads[index]
                ready_writes += bank_writes[index]
            index += 1
        if not ready_reads and not ready_writes:
            return

        read_queue = self.read_queues[channel_idx]
        write_queue = self.write_queues[channel_idx]
        priority = self.priority_core
        reads: List[MemRequest] = []
        preferred: List[MemRequest] = []
        heads: List[Optional[MemRequest]] = [None] * self.num_cores
        for waiting in read_queue:
            core = waiting.core
            head = heads[core]
            if head is None or waiting.arrival_time < head.arrival_time:
                heads[core] = waiting
            if banks[waiting.bank].busy_until <= now:
                reads.append(waiting)
                if core == priority:
                    preferred.append(waiting)
        writes: Optional[List[MemRequest]] = None
        while True:
            if ready_writes and len(write_queue) >= WRITE_DRAIN_WATERMARK:
                if writes is None:
                    writes = [w for w in write_queue if banks[w.bank].busy_until <= now]
                candidates = writes
            elif reads:
                candidates = preferred or reads
            elif ready_writes:
                if writes is None:
                    writes = [w for w in write_queue if banks[w.bank].busy_until <= now]
                candidates = writes
            else:
                return
            request = self.scheduler.pick(candidates, channel, now)
            completion, _row_hit, conflict_other = service_request(
                channel, request, now, self.config
            )
            core = request.core
            bank = request.bank
            on_bank_reads = bank_reads[bank]
            on_bank_writes = bank_writes[bank]
            if request.is_write:
                write_queue.remove(request)
                bank_writes[bank] = on_bank_writes - 1
            else:
                read_queue.remove(request)
                bank_reads[bank] = on_bank_reads - 1
                self.reads_issued[core] += 1

            if conflict_other:
                request.interference_cycles += self._conflict_penalty
            occupancy = completion - now
            other = 0
            for head in heads:
                if head is not None and other != core:
                    if head.bank == bank:
                        head.interference_cycles += occupancy
                    else:
                        head.interference_cycles += self._burst
                other += 1

            channel.last_issued_core = core
            self.engine.schedule_at(
                completion, lambda r=request, ch=channel_idx: self._complete(r, ch)
            )

            # Every read waiting on the issued bank is a ready read.
            if on_bank_reads:
                if len(reads) > on_bank_reads:
                    reads = [r for r in reads if r.bank != bank]
                    if preferred:
                        preferred = [r for r in preferred if r.bank != bank]
                else:
                    reads = preferred = []
            if on_bank_writes:
                ready_writes -= on_bank_writes
                if writes:
                    writes = [w for w in writes if w.bank != bank]
            if heads[core] is request and (reads or ready_writes):
                heads[core] = _oldest(read_queue, core)

    def _complete(self, request: MemRequest, channel_idx: int) -> None:
        self._account_queueing(channel_idx, self.engine.now)
        if request.callback is not None:
            request.callback(request)
        if not request.is_write:
            for listener in self.completion_listeners:
                listener(request)
        # The freed bank may unblock queued work.
        if self.read_queues[channel_idx] or self.write_queues[channel_idx]:
            self._wake(channel_idx)
