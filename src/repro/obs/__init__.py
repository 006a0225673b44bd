"""Observability layer: structured tracing, metrics and profiling hooks.

``repro.obs`` makes the simulator inspectable without changing what it
computes. Three independent facilities share the package:

* the **trace bus** (:mod:`repro.obs.bus`) — typed, sim-cycle-timestamped
  events (quantum boundaries, epoch ownership, model estimates, policy
  reallocations/skips, estimate-guard degradations, watchdog faults)
  published to pluggable sinks (:mod:`repro.obs.sinks`) behind per-category
  enable masks;
* the **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges
  and histograms snapshotted at every quantum boundary and dumped next to
  campaign checkpoints;
* **profiling hooks** (:mod:`repro.obs.profile`) — opt-in
  ``time.perf_counter`` stage timers around the engine drain, the shared
  cache access path and the model/policy quantum updates, surfaced by the
  ``repro profile`` CLI verb. (A campaign's ``--profile`` per-cell timing
  table is separate: :mod:`repro.parallel` times each cell and reads its
  events from the metrics registry's ``engine.events`` counter.)

The contract that keeps all of this out of the hot path: every
instrumented component holds an ``Optional[TraceBus]`` that defaults to
``None``, and the disabled path is a single ``obs is not None`` (or, for
category-gated sites, ``obs.mask & CATEGORY``) predicate. A run with
``obs=None`` — or with a bus whose mask disables a category — is
bit-identical to a run without the instrumentation compiled in at all;
``tests/test_obs.py`` asserts that via result fingerprints.
"""

from repro.obs.bus import TraceBus
from repro.obs.events import (
    ALL_CATEGORIES,
    CACHE,
    CATEGORY_NAMES,
    DEFAULT_CATEGORIES,
    EPOCH,
    FAULT,
    GUARD,
    MODEL,
    POLICY,
    QUANTUM,
    TraceEvent,
    mask_for,
    names_for,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_metric_series,
)
from repro.obs.sinks import JsonlSink, NullSink, RingBufferSink, read_jsonl

__all__ = [
    "ALL_CATEGORIES",
    "CACHE",
    "CATEGORY_NAMES",
    "Counter",
    "DEFAULT_CATEGORIES",
    "EPOCH",
    "FAULT",
    "GUARD",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MODEL",
    "MetricsRegistry",
    "render_metric_series",
    "NullSink",
    "POLICY",
    "QUANTUM",
    "RingBufferSink",
    "TraceBus",
    "TraceEvent",
    "mask_for",
    "names_for",
    "read_jsonl",
]
