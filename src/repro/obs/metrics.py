"""Metrics registry: counters, gauges and histograms with snapshots.

A :class:`MetricsRegistry` is a flat namespace of named instruments.
The runner updates them once per quantum and calls :meth:`snap` at the
boundary, so a run leaves behind one snapshot per quantum; campaigns
dump those next to their JSONL checkpoints (``metrics.jsonl``).

Instruments are plain Python (no locks, no background threads): the
simulator is single-threaded per run, and per-quantum update frequency
makes overhead irrelevant. Naming convention used by the runner:
``core{i}.demand_hits``, ``{model}.core{i}.car_alone``,
``engine.events``, ``queueing_delay`` (histogram).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


#: Default bucket edges for cycle-valued distributions (queueing delay).
DEFAULT_EDGES: Tuple[float, ...] = (10, 25, 50, 100, 200, 400, 800)


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``edges`` are the inclusive upper bounds of the first ``len(edges)``
    buckets; values above the last edge land in an overflow bucket, so
    ``sum(counts) == count`` always holds.
    """

    __slots__ = ("name", "edges", "counts", "count", "total")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_EDGES) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be non-empty and ascending")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = len(self.edges)  # overflow bucket
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean of the observed samples (NaN with no samples)."""
        return self.total / self.count if self.count else float("nan")


class MetricsRegistry:
    """A named collection of instruments plus per-quantum snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: One dict per :meth:`snap` call, in call order.
        self.snapshots: List[Dict[str, Any]] = []

    # -- instrument access (get-or-create) ------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, creating it on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, creating it on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name``, creating it on first use.

        ``edges`` only applies at creation; a later mismatch raises so
        two call sites cannot silently disagree about the buckets.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = Histogram(name, edges if edges is not None else DEFAULT_EDGES)
            self._histograms[name] = instrument
        elif edges is not None and tuple(edges) != instrument.edges:
            raise ValueError(
                f"histogram {name!r} already exists with edges {instrument.edges}"
            )
        return instrument

    def _check_free(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(f"metric name {name!r} already used by another kind")

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Current values of every instrument as a JSON-ready dict."""
        out: Dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            out[name] = {
                "edges": list(hist.edges),
                "counts": list(hist.counts),
                "count": hist.count,
                "total": hist.total,
            }
        return out

    def snap(self, cycle: int) -> Dict[str, Any]:
        """Append (and return) a snapshot stamped with the sim cycle."""
        record: Dict[str, Any] = {"cycle": cycle}
        record.update(self.snapshot())
        self.snapshots.append(record)
        return record


__all__ = [
    "Counter",
    "DEFAULT_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
