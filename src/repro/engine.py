"""Deterministic discrete-event simulation engine.

All simulator components share one :class:`Engine`. Components schedule
callbacks at integer cycle timestamps; ties are broken by insertion order so
that identical inputs always produce identical simulations.

The queue is a calendar of per-timestamp FIFO buckets (a dict keyed by
cycle) plus a heap of the distinct timestamps. Scheduling into an existing
cycle is a dict lookup and a list append; the heap is touched once per
distinct cycle rather than once per event, and no per-event tuple is
allocated. Insertion order within a bucket *is* the tie-break order, so the
determinism contract is identical to a (time, seq, callback) heap.

The engine reads the wall clock only for the watchdog deadline of
:meth:`Engine.run`. The stage profiler (:mod:`repro.obs.profile`) times
drains by wrapping ``run`` on one engine instance, so an unprofiled run
carries no timing code at all.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Callable, Dict, List, Optional

Callback = Callable[[], None]

_heappush = heapq.heappush

# How often (in executed events) the run loop samples the wall clock when a
# deadline is armed. The first sample happens right after the first event so
# a single slow callback at the head of a run cannot evade the watchdog for
# a whole window.
_DEADLINE_CHECK_EVENTS = 1024


class DeadlineExceeded(RuntimeError):
    """A wall-clock deadline expired while the event loop was running.

    Raised from :meth:`Engine.run` so that a hung or pathologically slow
    quantum can be aborted and diagnosed instead of burning the rest of a
    campaign's time budget.
    """

    def __init__(self, now: int, pending_events: int, overshoot_s: float) -> None:
        super().__init__(
            f"wall-clock deadline exceeded (overshot by {overshoot_s:.3f}s) at "
            f"cycle {now} with {pending_events} pending events"
        )
        self.now = now
        self.pending_events = pending_events
        self.overshoot_s = overshoot_s


class Engine:
    """A bucket-queue event loop with integer cycle time."""

    def __init__(self) -> None:
        self.now: int = 0
        # Invariant: a timestamp is in the ``_times`` heap if and only if it
        # has a (non-empty) bucket in ``_buckets``.
        self._buckets: Dict[int, List[Callback]] = {}
        self._times: List[int] = []
        # Bound once: ``schedule`` runs once per event and the dict object
        # never changes, so skip the two attribute hops per call.
        self._bucket_get = self._buckets.get
        self._stopped: bool = False
        # Diagnostics for the last run() call: did the queue drain before
        # ``until`` was reached / did stop() interrupt it? The watchdog in
        # the run harness uses these to turn a silent time clamp into a
        # diagnosable failure.
        self.drained_early: bool = False
        self.stopped_early: bool = False
        self.events_executed: int = 0

    def schedule(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        bucket = self._bucket_get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            _heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        bucket = self._bucket_get(time)
        if bucket is None:
            self._buckets[time] = [callback]
            _heappush(self._times, time)
        else:
            bucket.append(callback)

    def stop(self) -> None:
        """Request that :meth:`run` return before the next event."""
        self._stopped = True

    def run(
        self,
        until: Optional[int] = None,
        wall_deadline: Optional[float] = None,
    ) -> int:
        """Run events until the queue drains or ``until`` cycles is reached.

        Returns the final simulation time. Events scheduled exactly at
        ``until`` are not executed; time is clamped to ``until``.

        ``wall_deadline`` is an absolute :func:`time.monotonic` timestamp;
        when it passes while events are still being executed the loop raises
        :class:`DeadlineExceeded`. The clock is sampled after the first
        event, every ~1K events after that, and once more when the queue
        drains, so neither a slow leading callback nor a slow trailing one
        escapes the check.
        """
        self._stopped = False
        self.drained_early = False
        self.stopped_early = False
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        executed = 0
        # First sample right after the first event; never when disarmed.
        # The check stays inside the bucket drain loop because a zero-delay
        # self-rescheduling callback can keep one bucket growing forever —
        # exactly the live-lock the deadline exists to catch.
        next_deadline_check = 1 if wall_deadline is not None else (1 << 62)
        while times and not self._stopped:
            time = times[0]
            if until is not None and time >= until:
                self.now = until
                self.events_executed = executed
                return until
            self.now = time
            heappop(times)
            bucket = buckets[time]
            i = 0
            # Drain the bucket in insertion order with a plain list
            # iterator: CPython's list iterator re-reads the list length on
            # every step, so same-cycle events a callback appends mid-drain
            # are picked up, in order, within this batch. The finally block
            # keeps the queue consistent however the drain ends —
            # completion, stop(), deadline, or a callback raising: consumed
            # events are dropped, unconsumed ones stay pending.
            try:
                for callback in bucket:
                    i += 1
                    callback()
                    executed += 1
                    if self._stopped:
                        break
                    if executed >= next_deadline_check:
                        next_deadline_check = executed + _DEADLINE_CHECK_EVENTS
                        # Watchdog only: the wall clock never reaches
                        # simulation state, it can only abort the run.
                        now_mono = _time.monotonic()
                        if now_mono > wall_deadline:
                            self.events_executed = executed
                            pending = (
                                sum(len(b) for b in buckets.values()) - i
                            )
                            raise DeadlineExceeded(
                                self.now, pending, now_mono - wall_deadline,
                            )
            finally:
                if i < len(bucket):
                    del bucket[:i]
                    _heappush(times, time)
                else:
                    del buckets[time]
        self.events_executed = executed
        self.stopped_early = self._stopped
        if wall_deadline is not None and not self._stopped and executed:
            # Watchdog only (see above): a drain-time overshoot still
            # raises, but the clock never influences simulation state.
            now_mono = _time.monotonic()
            if now_mono > wall_deadline:
                raise DeadlineExceeded(
                    self.now,
                    sum(len(b) for b in buckets.values()),
                    now_mono - wall_deadline,
                )
        if until is not None and self.now < until:
            self.drained_early = not self._stopped
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        return sum(len(b) for b in self._buckets.values())
