"""The trace bus: one emit path, a category mask, pluggable sinks.

Emit sites follow a single discipline so the disabled path costs one
predicate::

    obs = self.obs
    if obs is not None and obs.mask & CATEGORY:
        obs.emit(now, CATEGORY, "kind", core=..., value=...)

``obs is None`` (the default everywhere) short-circuits before any
payload dict is built; a bus with the category masked out costs one
integer AND more. Only when the category is enabled does the event
object exist at all.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.events import ALL_CATEGORIES, TraceEvent
from repro.obs.sinks import TraceSink


class TraceBus:
    """Routes :class:`~repro.obs.events.TraceEvent` records to sinks.

    ``mask`` is the category enable mask (bitwise OR of the constants in
    :mod:`repro.obs.events`); emit sites check it *before* calling
    :meth:`emit`, so a masked-out category never allocates an event.
    """

    __slots__ = ("mask", "sinks")

    def __init__(
        self,
        sinks: Sequence[TraceSink],
        categories: int = ALL_CATEGORIES,
    ) -> None:
        """``categories`` is the initial enable mask (default: all)."""
        self.mask = categories
        self.sinks = list(sinks)

    def emit(self, cycle: int, category: int, kind: str, **data: Any) -> None:
        """Publish one event to every sink.

        Callers gate on :attr:`mask` first; :meth:`emit` re-checks so a
        direct call with a masked category is still a no-op.
        """
        if not self.mask & category:
            return
        event = TraceEvent(cycle=cycle, category=category, kind=kind, data=data)
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Flush and close every sink (file sinks need this)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "TraceBus":
        """Context-manager support: ``with TraceBus(...) as bus:``."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the sinks on scope exit."""
        self.close()


__all__ = ["TraceBus"]
