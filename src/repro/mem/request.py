"""Memory request record passed between the LLC and the memory controller."""

from __future__ import annotations

from typing import Callable, Optional


class MemRequest:
    """One DRAM read or write transaction.

    Timing fields are filled in by the controller as the request advances.
    ``interference_cycles`` accumulates the controller's per-request
    attribution of delay caused by *other* cores — the quantity FST/PTCA-
    style per-request accounting consumes (and the paper argues is
    inherently inaccurate to measure).
    """

    __slots__ = (
        "core",
        "line_addr",
        "is_write",
        "is_prefetch",
        "arrival_time",
        "issue_time",
        "completion_time",
        "callback",
        "channel",
        "bank",
        "row",
        "interference_cycles",
        "marked",
    )

    def __init__(
        self,
        core: int,
        line_addr: int,
        is_write: bool = False,
        is_prefetch: bool = False,
        arrival_time: int = 0,
        callback: Optional[Callable[["MemRequest"], None]] = None,
    ) -> None:
        self.core = core
        self.line_addr = line_addr
        self.is_write = is_write
        self.is_prefetch = is_prefetch
        self.arrival_time = arrival_time
        self.issue_time: Optional[int] = None
        self.completion_time: Optional[int] = None
        self.callback = callback
        self.channel: int = 0
        self.bank: int = 0
        self.row: int = 0
        self.interference_cycles: float = 0.0
        self.marked: bool = False  # PARBS batch membership

    @property
    def latency(self) -> int:
        """End-to-end service latency (valid after completion)."""
        if self.completion_time is None:
            raise ValueError("request has not completed")
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else ("P" if self.is_prefetch else "R")
        return (
            f"MemRequest({kind} core={self.core} line={self.line_addr:#x} "
            f"ch={self.channel} bank={self.bank} row={self.row})"
        )
