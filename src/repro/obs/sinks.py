"""Trace sinks: where the bus delivers events.

Three built-ins cover the intended uses:

* :class:`RingBufferSink` — bounded in-memory buffer ("flight recorder"):
  always cheap, keeps the last N events for post-mortem inspection;
* :class:`JsonlSink` — one JSON object per line to a file, loadable with
  :func:`read_jsonl` and by ``repro trace show``;
* :class:`ListSink` — every event in memory, unbounded: a profiled
  campaign cell keeps its per-quantum events in one for its store record.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, List, Optional

from repro.durability.atomic import DurableStream
from repro.durability.store import read_log
from repro.obs.events import TraceEvent


class TraceSink:
    """Sink interface: subclasses override :meth:`write` (and maybe
    :meth:`close`)."""

    def write(self, event: TraceEvent) -> None:
        """Receive one event from the bus."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/close any resources; the base implementation is a no-op."""


class ListSink(TraceSink):
    """Keeps every event in memory, in emission order. Unbounded, so it
    suits the per-quantum categories of a run, not the CACHE stream."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        """Append ``event``."""
        self.events.append(event)


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total = 0

    def write(self, event: TraceEvent) -> None:
        """Append ``event``, evicting the oldest once at capacity."""
        self._ring.append(event)
        self.total += 1

    @property
    def dropped(self) -> int:
        """Events evicted because the buffer was full."""
        return self.total - len(self._ring)

    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink(TraceSink):
    """Writes each event as one JSON line to ``path``.

    Backed by a :class:`~repro.durability.atomic.DurableStream`: writes
    buffer normally (a trace emits far too many events to fsync each
    one), and close pays a single flush+fsync, so a completed trace
    survives a crash-after-close intact. A crash mid-trace leaves at
    most a torn trailing line, which :func:`read_jsonl` skips.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._stream: Optional[DurableStream] = DurableStream(path)

    def write(self, event: TraceEvent) -> None:
        """Serialise ``event`` and append it to the file."""
        stream = self._stream
        if stream is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        stream.write(json.dumps(event.to_json()) + "\n")

    def close(self) -> None:
        """Flush, fsync and close the file (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load the events a :class:`JsonlSink` wrote, skipping torn lines.

    Delegates torn-line recovery to the checksummed-store reader of
    :mod:`repro.durability.store` (trace files are plain v1 JSONL — the
    reader's legacy path — so damaged lines are skipped, not
    quarantined).
    """
    payloads, _report = read_log(path)
    return [
        TraceEvent.from_json(record)
        for record in payloads
        if isinstance(record, dict)
    ]


__all__ = [
    "JsonlSink",
    "ListSink",
    "RingBufferSink",
    "TraceSink",
    "read_jsonl",
]
