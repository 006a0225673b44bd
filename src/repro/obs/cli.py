"""CLI verbs for the observability layer.

``python -m repro trace show|summarize`` runs a small instrumented mix
(or loads a previously captured JSONL trace) and renders the event
stream either raw or folded into the per-quantum narrative of
:mod:`repro.obs.inspect`.

``python -m repro profile`` runs the same kind of mix under the
:class:`~repro.obs.profile.StageProfiler` and prints the stage timing
table and the run's wall time, split into the shared run (the sum of the
stage rows) and the rest (alone runs and set-up), optionally with a
:mod:`cProfile` function-level breakdown.

Both verbs are dispatched from :mod:`repro.cli` before its experiment
argument parsing, so ``repro trace --help`` works like any subcommand.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import List, Optional, Sequence

from repro.obs.bus import TraceBus
from repro.obs.events import TraceEvent, mask_for
from repro.obs.inspect import render_events, render_summary, summarize_events
from repro.obs.profile import StageProfiler, profile_call
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink, read_jsonl

#: Default event retention for in-memory traces. Large enough to hold
#: every non-CACHE event of a small diagnostic run; CACHE-enabled traces
#: should stream to --out instead of relying on the ring.
DEFAULT_RING_CAPACITY = 65536


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every verb that simulates a diagnostic mix."""
    parser.add_argument("--apps", type=str, default="mcf,bzip2",
                        help="comma-separated catalog apps, one per core")
    parser.add_argument("--quanta", type=int, default=3,
                        help="quanta to simulate")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload-generation seed")
    parser.add_argument("--quantum-cycles", type=int, default=100_000,
                        help="cycles per quantum")
    parser.add_argument("--epoch-cycles", type=int, default=5_000,
                        help="cycles per epoch")


def _run_traced(
    args: argparse.Namespace, sinks: Sequence[TraceSink], mask: int
) -> None:
    """Simulate the requested mix with a trace bus over ``sinks``.

    Uses the scaled platform with the ASM model and ASM-Cache policy so
    the trace exercises every event category the simulator can emit.
    """
    from repro.config import scaled_config
    from repro.harness.runner import run_workload
    from repro.models.asm import AsmModel
    from repro.policies.asm_cache import AsmCachePolicy
    from repro.workloads.mixes import make_mix

    apps = [name.strip() for name in args.apps.split(",") if name.strip()]
    if not apps:
        raise SystemExit("repro trace: --apps must name at least one app")
    mix = make_mix(apps, seed=args.seed)
    config = scaled_config(len(apps)).with_quantum(
        args.quantum_cycles, args.epoch_cycles
    )
    bus = TraceBus(list(sinks), categories=mask)
    with bus:
        run_workload(
            mix,
            config,
            model_factories={
                "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets)
            },
            policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
            quanta=args.quanta,
            obs=bus,
        )


def trace_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro trace show|summarize``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Capture and inspect structured simulator traces.",
    )
    parser.add_argument("command", choices=("show", "summarize"),
                        help="'show' renders raw events, 'summarize' the "
                             "per-quantum narrative")
    _add_run_options(parser)
    parser.add_argument("--input", type=str, default="", metavar="FILE",
                        help="inspect an existing JSONL trace instead of "
                             "running a mix")
    parser.add_argument("--out", type=str, default="", metavar="FILE",
                        help="also stream the captured trace to this JSONL "
                             "file")
    parser.add_argument("--categories", type=str, default="default",
                        help="comma-separated categories to enable "
                             "(quantum,epoch,cache,model,policy,guard,fault), "
                             "'default' (all but cache) or 'all'")
    parser.add_argument("--limit", type=int, default=200,
                        help="max events for 'show' (0 = unlimited)")
    args = parser.parse_args(argv)

    events: List[TraceEvent]
    if args.input:
        events = list(read_jsonl(args.input))
    else:
        try:
            mask = mask_for(name.strip() for name in args.categories.split(","))
        except ValueError as exc:
            parser.error(str(exc))
        ring = RingBufferSink(capacity=DEFAULT_RING_CAPACITY)
        sinks: List[TraceSink] = [ring]
        if args.out:
            sinks.append(JsonlSink(args.out))
        _run_traced(args, sinks, mask)
        if ring.dropped:
            print(
                f"note: ring buffer dropped {ring.dropped} early events "
                f"(capacity {DEFAULT_RING_CAPACITY}); use --out for the "
                "full stream",
                file=sys.stderr,
            )
        events = list(ring.events())

    if args.command == "show":
        print(render_events(events, limit=args.limit))
    else:
        print(render_summary(summarize_events(events)))
    return 0


def profile_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro profile``."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Profile the simulator's hot paths on a small mix.",
    )
    _add_run_options(parser)
    parser.add_argument("--cprofile", type=int, default=0, metavar="TOP",
                        help="also run under cProfile and print the TOP "
                             "functions by cumulative time")
    args = parser.parse_args(argv)

    from repro.config import scaled_config
    from repro.harness.runner import run_workload
    from repro.models.asm import AsmModel
    from repro.policies.asm_cache import AsmCachePolicy
    from repro.workloads.mixes import make_mix

    apps = [name.strip() for name in args.apps.split(",") if name.strip()]
    if not apps:
        raise SystemExit("repro profile: --apps must name at least one app")
    mix = make_mix(apps, seed=args.seed)
    config = scaled_config(len(apps)).with_quantum(
        args.quantum_cycles, args.epoch_cycles
    )
    profiler = StageProfiler()

    def run() -> float:
        start = perf_counter()
        run_workload(
            mix,
            config,
            model_factories={
                "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets)
            },
            policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
            quanta=args.quanta,
            system_hooks=[profiler.attach],
        )
        return perf_counter() - start

    stats_text = ""
    if args.cprofile:
        wall, stats_text = profile_call(run, top=args.cprofile)
    else:
        wall = run()

    print(f"profile: {mix.name} x {args.quanta} quanta "
          f"({args.quantum_cycles} cycles/quantum)")
    print(profiler.table())
    shared = sum(seconds for _, _, seconds in profiler.rows())
    rate = profiler.engine_events / shared if shared > 0 else 0.0
    print(
        f"wall {wall:.3f}s (alone runs and set-up {1 - shared / wall:.0%}, "
        f"shared {shared / wall:.0%}); {rate:,.0f} events/s in the shared run"
    )
    if stats_text:
        print("\ncProfile (cumulative):")
        print(stats_text)
    return 0


__all__ = ["profile_main", "trace_main"]
