"""Transaction-level DDR3 timing model.

Models the first-order DRAM effects that drive inter-application memory
interference in the paper: per-bank row buffers with the hit / closed /
conflict latency triad, the tRAS restriction on early precharge, bank-level
parallelism, and per-channel data-bus serialisation.

Command-level details (tFAW, tRRD, refresh) are below the noise floor for
the interference phenomena studied here and are deliberately omitted; the
row-latency triad uses real DDR3-1333 (10-10-10) values from
:class:`repro.config.DramConfig`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import DramConfig
from repro.mem.request import MemRequest


class Bank:
    """One DRAM bank: open row, busy window, last-activate time."""

    __slots__ = ("open_row", "busy_until", "act_time", "last_opener", "current_core")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until: int = 0
        self.act_time: int = 0
        # Core whose request opened the current row (for interference
        # attribution: a row conflict caused by another core's activation).
        self.last_opener: int = -1
        # Core whose request currently occupies the bank (valid while
        # busy_until is in the future).
        self.current_core: int = -1


class Channel:
    """One memory channel: banks plus a shared data bus."""

    def __init__(self, num_banks: int) -> None:
        self.banks: List[Bank] = [Bank() for _ in range(num_banks)]
        self.bus_free_at: int = 0
        self.last_issued_core: int = -1


class DramMapping:
    """Physical address mapping: row-interleaved across channels, then
    row-granularity interleaving across banks.

    Consecutive cache lines fall in the same row (preserving row-buffer
    locality), consecutive rows rotate across channels and banks (exposing
    channel/bank parallelism).
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.lines_per_row = config.row_size_bytes // 64
        self.channels = config.channels
        self.banks_per_channel = config.ranks_per_channel * config.banks_per_rank

    def locate(self, line_addr: int) -> Tuple[int, int, int]:
        """Return (channel, bank, row) for a cache-line address."""
        row_index = line_addr // self.lines_per_row
        channel = row_index % self.channels
        per_channel_row = row_index // self.channels
        bank = per_channel_row % self.banks_per_channel
        row = per_channel_row // self.banks_per_channel
        return channel, bank, row


def service_request(
    channel: Channel, request: MemRequest, now: int, config: DramConfig
) -> Tuple[int, bool, bool]:
    """Issue ``request`` on ``channel`` at time ``now``; the caller must
    ensure the target bank is free (``busy_until <= now``).

    Returns ``(completion_time, row_hit, conflict_with_other)`` and updates
    bank and bus state. ``conflict_with_other`` is True when the latency
    included a precharge of a row opened by a different core — the component
    per-request accounting mechanisms attribute to interference.
    """
    bank = channel.banks[request.bank]
    row_hit = False
    conflict_with_other = False

    if bank.open_row == request.row:
        # Row hit: column access only.
        data_ready = now + config.cas_latency
        row_hit = True
    elif bank.open_row is None:
        # Closed row: activate then access.
        bank.act_time = now
        data_ready = now + config.trcd + config.cas_latency
    else:
        # Row conflict: precharge (not before tRAS after activate), then
        # activate, then access.
        precharge_start = bank.act_time + config.tras
        if precharge_start < now:
            precharge_start = now
        conflict_with_other = bank.last_opener != request.core
        act_start = precharge_start + config.trp
        bank.act_time = act_start
        data_ready = act_start + config.trcd + config.cas_latency

    if not row_hit:
        bank.open_row = request.row
        bank.last_opener = request.core

    # The data burst serialises on the channel's data bus.
    bus_free = channel.bus_free_at
    completion = (bus_free if bus_free > data_ready else data_ready) + config.burst_time
    channel.bus_free_at = completion
    bank.busy_until = completion
    bank.current_core = request.core

    request.issue_time = now
    request.completion_time = completion
    return completion, row_hit, conflict_with_other
