"""Span tracing of repro's layers, installed from the benchmark's side only.

A traced run patches public entry points of the program at class or module
level (and, through ``run_workload(system_hooks=...)``, the public listener
lists of a :class:`~repro.harness.system.System`). Every patched call
records one span: its name, start, end and parent. Spans stay in memory as
parallel arrays and are written out when the run ends.

Self time is a span's duration minus the durations of its direct children.
Callbacks handed to ``Engine.schedule``/``schedule_at`` are wrapped at
schedule time and open their span when the engine *executes* them, so a
callback's parent is the ``engine.run`` span that drained it, never the
span that scheduled it. Each callback is named after the module that
defined it, which gives the core and the controller's issue/complete path
their own self time although neither has a public per-event entry point.

Nothing here changes what the program computes: wrappers forward their
arguments and results unchanged, and a traced run's result digests are
compared against an untraced run's.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Tuple

ROOT = "bench.workload"

#: Models whose listener time is reported on its own (``models.<m>.*``).
MODELS = ("asm", "fst", "ptca", "mise", "stfm", "perrequest")

#: The program's layers: a span belongs to the layer named by its first
#: dotted component. ``trace.coverage`` sums only these spans' self time.
#: The catch-all spans (the root, ``runner.*``, ``campaign.*``,
#: ``cloud.run``) contain whole calls, so their self time is wall time
#: that no layer span explains and must not count as covered.
LAYERS = frozenset((
    "engine", "cpu", "workloads", "system", "cache", "mem", "models",
    "policies", "store", "analytic",
))


def coverage(exclusive: Dict[str, float], wall: float) -> float:
    """Share of ``wall`` spent in the self time of layer spans."""
    if wall <= 0:
        return 0.0
    covered = sum(v for k, v in exclusive.items() if k.split(".", 1)[0] in LAYERS)
    return covered / wall


class SpanLog:
    """In-memory span store: four parallel arrays plus a name table."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: (self seconds, inclusive seconds, span count).

        Inclusive time skips a span whose parent has the same name, so a
        directly recursive entry point is not counted twice.
        """
        n = len(self.name)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        width = len(self.names)
        exclusive = [0.0] * width
        inclusive = [0.0] * width
        count = [0] * width
        for i in range(n):
            nid = names[i]
            duration = end[i] - start[i]
            exclusive[nid] += duration - child[i]
            count[nid] += 1
            p = parent[i]
            if p < 0 or names[p] != nid:
                inclusive[nid] += duration
        labels = self.names
        return (
            dict(zip(labels, exclusive)),
            dict(zip(labels, inclusive)),
            dict(zip(labels, count)),
        )

    def write(self, path: str) -> None:
        """Persist the spans: a name table line, then the four arrays."""
        with open(path, "wb") as handle:
            handle.write(("\t".join(self.names) + "\n").encode())
            handle.write(f"{len(self)}\n".encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def _traced(log: SpanLog, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """``fn`` wrapped so that each call records one span called ``name``."""
    nid = log.name_id(name)
    names, parents, starts, ends = log.name, log.parent, log.start, log.end
    clock = log.clock

    def traced(*args: Any, **kwargs: Any) -> Any:
        idx = len(names)
        names.append(nid)
        parents.append(log.current)
        starts.append(clock())
        ends.append(0.0)
        log.current = idx
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            log.current = parents[idx]

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def owner_span(fn: Callable[..., Any]) -> str:
    """Span name for a listener or callback: the layer that defined it."""
    owner = getattr(fn, "__self__", None)
    module = (
        type(owner).__module__ if owner is not None
        else getattr(fn, "__module__", "") or ""
    )
    qualname = getattr(fn, "__qualname__", "")
    if module.startswith("repro.models."):
        return "models." + module.rsplit(".", 1)[1]
    if module.startswith("repro.policies."):
        return "policies"
    if module.startswith("repro.cpu."):
        return "cpu.callback"
    if module == "repro.mem.controller":
        # The per-channel issue thunks are built in __init__; completions
        # are closures created while issuing.
        if "__init__" in qualname:
            return "mem.issue"
        if "._issue." in qualname:
            return "mem.complete"
        return "mem.callback"
    if module.startswith("repro.harness."):
        return "system.callback"
    return "other." + module


class Tracer:
    """Installs span wrappers on repro's public entry points.

    ``install`` must run after ``repro`` is imported; ``uninstall``
    restores every patched attribute. A process forked while tracing
    (pool workers) uninstalls in the child, whose spans the parent could
    not see anyway.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.log = SpanLog(clock)
        self.counters: Dict[str, float] = {
            "llc_hits": 0, "mshr_merges": 0, "alone_runs": 0,
            "profile_hits": 0, "row_hits": 0, "services": 0,
            "pool_fanout_s": 0.0, "pool_child_cpu_s": 0.0, "pool_workers": 0,
        }
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callback_names: Dict[Any, int] = {}
        self.callback_spans: set = set()
        self._installed = False

    # -- patching ---------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span_method(self, cls: type, attr: str, name: str) -> None:
        self._set(cls, attr, _traced(self.log, cls.__dict__[attr], name))

    def _patch_function(self, fn: Callable[..., Any], make: Callable[[Any], Any]) -> None:
        """Replace ``fn`` in every repro module that imported it by name."""
        wrapper = make(fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _span_function(self, fn: Callable[..., Any], name: str) -> None:
        self._patch_function(fn, lambda f: _traced(self.log, f, name))

    def install(self) -> None:
        from repro.analytic import cpi, reuse, runner as analytic_runner
        from repro.cache.auxtag import AuxiliaryTagStore
        from repro.cache.shared_cache import SharedCache
        from repro.cloud.fleet import FleetSupervisor
        from repro.durability.store import ChecksummedLog, KeyedLog
        from repro.engine import Engine
        from repro.harness import runner
        from repro.harness.system import MemoryHierarchy, System
        from repro.mem import dram
        from repro.mem.controller import MemoryController
        from repro.mem.schedulers import Scheduler
        from repro import parallel
        from repro.resilience.campaign import Campaign, PersistentAloneRunCache
        from repro.workloads.synthetic import SyntheticTrace

        log, counters = self.log, self.counters
        self._span_method(Engine, "run", "engine.run")
        self._wrap_schedule(Engine)
        self._span_method(SyntheticTrace, "__next__", "workloads.next")
        self._span_method(AuxiliaryTagStore, "access", "cache.ats")
        self._span_method(MemoryController, "enqueue", "mem.enqueue")
        stack = [Scheduler]
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "pick" in cls.__dict__:
                self._span_method(cls, "pick", "mem.sched")
        self._span_method(System, "run_quantum", "runner.quantum")
        self._span_method(Campaign, "run_mix", "campaign.run_mix")
        self._span_method(ChecksummedLog, "append", "store.append")
        self._span_method(KeyedLog, "put", "store.put")
        self._span_method(FleetSupervisor, "run", "cloud.run")
        self._span_function(runner.run_workload, "runner.run_workload")
        self._span_function(analytic_runner.run_analytic, "analytic.run")
        self._span_function(reuse.profile_mix, "analytic.profile_mix")
        self._span_function(cpi.solve_shared, "analytic.solve_shared")
        self._span_function(cpi.solve_alone, "analytic.solve_alone")

        llc_access = _traced(log, SharedCache.__dict__["access"], "cache.llc")

        def shared_cache_access(cache: Any, core: int, line_addr: int,
                                is_write: bool = False) -> Any:
            result = llc_access(cache, core, line_addr, is_write)
            if result.hit:
                counters["llc_hits"] += 1
            return result

        self._set(SharedCache, "access", shared_cache_access)
        add_eviction = SharedCache.__dict__["add_eviction_listener"]

        def add_eviction_listener(cache: Any, listener: Any) -> None:
            add_eviction(cache, _traced(log, listener, owner_span(listener)))

        self._set(SharedCache, "add_eviction_listener", add_eviction_listener)
        hierarchy_access = _traced(
            log, MemoryHierarchy.__dict__["access"], "system.access"
        )

        def memory_hierarchy_access(hierarchy: Any, core: int, line_addr: int,
                                    is_write: bool, on_complete: Any) -> Any:
            if line_addr in hierarchy.mshr:
                counters["mshr_merges"] += 1
            return hierarchy_access(hierarchy, core, line_addr, is_write, on_complete)

        self._set(MemoryHierarchy, "access", memory_hierarchy_access)

        def count_rows(fn: Callable[..., Any]) -> Callable[..., Any]:
            def service_request(*args: Any) -> Any:
                result = fn(*args)
                counters["services"] += 1
                if result[1]:
                    counters["row_hits"] += 1
                return result
            return service_request

        self._patch_function(dram.service_request, count_rows)

        for cls in (runner.AloneRunCache, PersistentAloneRunCache):
            cache_get = _traced(log, cls.__dict__["get"], "runner.alone")

            def alone_get(cache: Any, *args: Any, _get: Any = cache_get) -> Any:
                misses = cache.misses
                profile = _get(cache, *args)
                counters["alone_runs"] += cache.misses - misses
                return profile

            self._set(cls, "get", alone_get)

        seen_profiles: set = set()

        def count_profile_hits(fn: Callable[..., Any]) -> Callable[..., Any]:
            extract = _traced(log, fn, "analytic.extract")

            def extract_profile(*args: Any, **kwargs: Any) -> Any:
                profile = extract(*args, **kwargs)
                if id(profile) in seen_profiles:
                    counters["profile_hits"] += 1
                seen_profiles.add(id(profile))
                return profile
            return extract_profile

        self._patch_function(reuse.extract_profile, count_profile_hits)

        def time_fanout(fn: Callable[..., Any]) -> Callable[..., Any]:
            run_cells = _traced(log, fn, "campaign.run_cells")

            def fan_out(campaign: Any, cells: Any, *, workers: int = 1) -> Any:
                if workers <= 1:
                    return run_cells(campaign, cells, workers=workers)
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                start = time.perf_counter()
                try:
                    return run_cells(campaign, cells, workers=workers)
                finally:
                    after = resource.getrusage(resource.RUSAGE_CHILDREN)
                    counters["pool_fanout_s"] += time.perf_counter() - start
                    counters["pool_child_cpu_s"] += (
                        after.ru_utime - before.ru_utime
                        + after.ru_stime - before.ru_stime
                    )
                    counters["pool_workers"] = max(counters["pool_workers"], workers)
            return fan_out

        self._patch_function(parallel.run_cells, time_fanout)
        self._installed = True
        os.register_at_fork(after_in_child=self.uninstall)

    def _wrap_schedule(self, engine_cls: type) -> None:
        log = self.log
        names, parents, starts, ends = log.name, log.parent, log.start, log.end
        clock = log.clock
        span_of = self._callback_names

        def wrap_callback(callback: Callable[[], None]) -> Callable[[], None]:
            # One classification per (code, owner class): every lambda of
            # one definition site, or bound method of one class, shares it.
            key = (
                getattr(callback, "__code__", callback),
                type(getattr(callback, "__self__", None)),
            )
            nid = span_of.get(key)
            if nid is None:
                nid = span_of[key] = log.name_id(owner_span(callback))
                self.callback_spans.add(log.names[nid])

            def run_callback() -> None:
                idx = len(names)
                names.append(nid)
                parents.append(log.current)
                starts.append(clock())
                ends.append(0.0)
                log.current = idx
                try:
                    callback()
                finally:
                    ends[idx] = clock()
                    log.current = parents[idx]

            return run_callback

        schedule = engine_cls.__dict__["schedule"]
        schedule_at = engine_cls.__dict__["schedule_at"]

        def traced_schedule(engine: Any, delay: int, callback: Any) -> None:
            schedule(engine, delay, wrap_callback(callback))

        def traced_schedule_at(engine: Any, when: int, callback: Any) -> None:
            schedule_at(engine, when, wrap_callback(callback))

        self._set(engine_cls, "schedule", traced_schedule)
        self._set(engine_cls, "schedule_at", traced_schedule_at)

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    # -- listeners (run_workload system hook) ------------------------------
    def trace_listeners(self, system: Any) -> None:
        """Wrap every listener already registered on ``system``."""
        lists = (
            system.hierarchy.access_listeners,
            system.hierarchy.service_listeners,
            system.controller.completion_listeners,
            system.epoch_listeners,
            system.measure_listeners,
            system.quantum_listeners,
        )
        for listeners in lists:
            listeners[:] = [
                _traced(self.log, fn, owner_span(fn)) for fn in listeners
            ]

    def root(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as the run's root span (the benchmark's own frame)."""
        return _traced(self.log, fn, ROOT)

    # -- per-layer metrics --------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer table of one traced run (see README.md)."""
        exclusive, inclusive, count = self.log.totals()
        c = self.counters

        def self_s(prefix: str) -> float:
            return sum(v for k, v in exclusive.items() if k.startswith(prefix))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        issues = count.get("mem.sched", 0)
        wall = inclusive.get(ROOT, 0.0)
        alone_s = inclusive.get("runner.alone", 0.0)
        shared_s = inclusive.get("runner.quantum", 0.0)
        run_workload_s = inclusive.get("runner.run_workload", 0.0)
        metrics: Dict[str, float] = {
            "engine.events": sum(count.get(k, 0) for k in self.callback_spans),
            "engine.self_s": exclusive.get("engine.run", 0.0),
            "cpu.callbacks": count.get("cpu.callback", 0),
            "cpu.self_s": self_s("cpu."),
            "workloads.records": count.get("workloads.next", 0),
            "workloads.self_s": self_s("workloads."),
            "system.accesses": count.get("system.access", 0),
            "system.self_s": self_s("system."),
            "system.mshr_merge_ratio": ratio(
                c["mshr_merges"], count.get("system.access", 0)
            ),
            "cache.llc_accesses": count.get("cache.llc", 0),
            "cache.llc_hit_ratio": ratio(c["llc_hits"], count.get("cache.llc", 0)),
            "cache.llc_self_s": exclusive.get("cache.llc", 0.0),
            "cache.ats_accesses": count.get("cache.ats", 0),
            "cache.ats_self_s": exclusive.get("cache.ats", 0.0),
            "mem.requests": count.get("mem.enqueue", 0),
            "mem.issues": issues,
            "mem.wakeups": count.get("mem.issue", 0),
            "mem.issue_yield": ratio(issues, count.get("mem.issue", 0)),
            "mem.row_hit_ratio": ratio(c["row_hits"], c["services"]),
            "mem.self_s": self_s("mem."),
            "mem.sched_self_s": exclusive.get("mem.sched", 0.0),
        }
        for model in MODELS:
            metrics[f"models.{model}.calls"] = count.get(f"models.{model}", 0)
            metrics[f"models.{model}.self_s"] = exclusive.get(f"models.{model}", 0.0)
        metrics.update({
            "policies.calls": count.get("policies", 0),
            "policies.self_s": exclusive.get("policies", 0.0),
            "runner.alone_runs": c["alone_runs"],
            "runner.alone_s": alone_s,
            "runner.shared_s": shared_s,
            "runner.build_s": max(0.0, run_workload_s - alone_s - shared_s),
            "campaign.self_s": self_s("campaign."),
            "pool.fanout_s": c["pool_fanout_s"],
            "pool.busy_frac": ratio(
                c["pool_child_cpu_s"], c["pool_fanout_s"] * c["pool_workers"]
            ),
            "store.appends": count.get("store.append", 0),
            "store.self_s": self_s("store."),
            "cloud.self_s": exclusive.get("cloud.run", 0.0),
            "analytic.profiles": count.get("analytic.extract", 0),
            "analytic.profile_hit_ratio": ratio(
                c["profile_hits"], count.get("analytic.extract", 0)
            ),
            "analytic.self_s": self_s("analytic."),
            "analytic.reuse_s": inclusive.get("analytic.profile_mix", 0.0),
            "analytic.solve_s": (
                inclusive.get("analytic.solve_shared", 0.0)
                + inclusive.get("analytic.solve_alone", 0.0)
            ),
            "trace.coverage": coverage(exclusive, wall),
        })
        return metrics
