"""Trace-driven out-of-order core model.

Approximates the paper's 3-wide, 128-entry-window OoO cores with the three
mechanisms that matter for memory interference studies:

* **Issue bandwidth**: instructions issue at ``issue_width`` per cycle, so
  compute gaps take time proportional to their length.
* **Window-limited MLP**: a shared-cache access cannot issue until every
  access more than ``window_size`` instructions older has completed. Within
  the window, any number of accesses overlap — this is the request-service
  overlap that defeats per-request interference accounting.
* **MSHR limit**: at most ``mshr_entries`` cache misses may be in flight.

Stores retire through a store buffer (they never block the window head);
their cache/memory traffic is still fully modelled.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional

from repro.config import CoreConfig
from repro.cpu.trace import TraceIterator, TraceRecord
from repro.engine import Engine

# hierarchy.access(core, line_addr, is_write, on_complete) -> completion time
# (if deterministic) or None (on_complete(time) will fire later).
HierarchyAccess = Callable[[int, int, bool, Optional[Callable[[int], None]]], Optional[int]]

_POSITION = 0
_COMPLETION = 1


class Core:
    """One trace-driven core."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        config: CoreConfig,
        trace: TraceIterator,
        hierarchy_access: HierarchyAccess,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.hierarchy_access = hierarchy_access
        # The issue loop reads these once per instruction; plain attributes
        # are one lookup cheaper than going through the config dataclass.
        self._window_size = config.window_size
        self._issue_width = config.issue_width
        self._mshr_entries = config.mshr_entries
        self._window_credit = config.window_size // config.issue_width

        self.position = 0  # instructions issued so far
        self.frontend_time = 0  # cycle up to which the frontend has issued
        self.outstanding: Deque[List[Optional[int]]] = deque()
        self.inflight_misses = 0
        self.finished = False

        self._next_record: Optional[TraceRecord] = None
        self._advance_scheduled = False
        self._waiting_for_fill = False
        # Bound once: every schedule hands the engine this same callback.
        self._advance_callback = self._advance

    def start(self) -> None:
        self._schedule_advance(self.engine.now)

    # ------------------------------------------------------------------
    def committed_instructions(self, now: Optional[int] = None) -> int:
        """Instructions retired by ``now`` under in-order retirement."""
        if now is None:
            now = self.engine.now
        for entry in self.outstanding:
            completion = entry[_COMPLETION]
            if completion is None or completion > now:
                return max(0, entry[_POSITION] - 1)
        return self.position

    # ------------------------------------------------------------------
    def _schedule_advance(self, time: int) -> None:
        if not self._advance_scheduled:
            self._advance_scheduled = True
            engine = self.engine
            if time < engine.now:
                time = engine.now
            engine.schedule_at(time, self._advance_callback)

    def _advance(self) -> None:
        self._advance_scheduled = False
        now = self.engine.now
        outstanding = self.outstanding
        window_size = self._window_size
        issue_width = self._issue_width
        mshr_entries = self._mshr_entries
        trace = self.trace
        popleft = outstanding.popleft

        while True:
            record = self._next_record
            if record is None:
                record = next(trace, None)
                if record is None:
                    self.finished = True
                    return
                if record.gap < 0 or record.line_addr < 0:
                    raise ValueError(
                        f"corrupt trace record for core {self.core_id}: "
                        f"{record!r}"
                    )
                self._next_record = record

            while outstanding:
                head_done = outstanding[0][_COMPLETION]
                if head_done is None or head_done > now:
                    break
                popleft()

            issue_position = self.position + record.gap + 1
            # Instructions head..issue_position inclusive must fit in the
            # window, i.e. span (issue - head + 1) <= window_size.
            if (
                outstanding
                and issue_position - outstanding[0][_POSITION] >= window_size
            ):
                head_completion = outstanding[0][_COMPLETION]
                if head_completion is None:
                    self._waiting_for_fill = True
                else:
                    self._stall_frontend(head_completion)
                    self._schedule_advance(head_completion)
                return

            if self.inflight_misses >= mshr_entries:
                self._waiting_for_fill = True
                return

            frontend_done = self.frontend_time + (
                (record.gap + issue_width) // issue_width
            )
            if frontend_done > now:
                self._schedule_advance(frontend_done)
                return

            # Issue the access now.
            self._next_record = None
            self.position = issue_position
            self.frontend_time = frontend_done
            entry: List[Optional[int]] = [issue_position, None]
            outstanding.append(entry)
            if record.is_write:
                # Stores retire immediately via the store buffer; the write
                # still walks the hierarchy for state and traffic.
                entry[_COMPLETION] = now + 1
                self.hierarchy_access(self.core_id, record.line_addr, True, None)
            else:
                completion = self.hierarchy_access(
                    self.core_id, record.line_addr, False, partial(self._on_fill, entry)
                )
                if completion is not None:
                    entry[_COMPLETION] = completion
                else:
                    self.inflight_misses += 1

    def _stall_frontend(self, resume_time: int) -> None:
        """The frontend cannot run ahead of retirement by more than the
        instruction window: while the window head blocks until
        ``resume_time``, at most ``window_size`` instructions' worth of
        fetch can be banked."""
        resume_floor = resume_time - self._window_credit
        if resume_floor > self.frontend_time:
            self.frontend_time = resume_floor

    def _on_fill(self, entry: List[Optional[int]], time: int) -> None:
        entry[_COMPLETION] = time
        self.inflight_misses -= 1
        if self._waiting_for_fill:
            self._waiting_for_fill = False
            self._stall_frontend(time)
            self._schedule_advance(time)
