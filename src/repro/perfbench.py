"""Perf-regression harness: wall-clock + events/sec capture into BENCH_*.json.

Importable home of the benchmark logic behind both entry points —
``benchmarks/perf_bench.py`` (the historical script, now a thin wrapper)
and the ``repro bench`` CLI verb (``run`` / ``compare`` / ``merge``
subcommands).

Three benchmarks:

* **Event-loop microbenchmark** (:func:`engine_microbench`): drives
  :class:`repro.engine.Engine` with a bundle of self-rescheduling
  callbacks (several sharing timestamps, several free-running) and
  reports raw events/sec of the dispatch loop itself.
* **Analytic benchmark** (:func:`analytic_bench`): one paper-scale cell
  at the analytical tier, cold and warm.
* **Sweep benchmark** (:func:`sweep_bench`): a fig02-style error survey
  run serially and through the parallel campaign layer; reports wall
  clock, speedup, and whether the two produced identical results.

Results merge into a JSON file (default ``BENCH_perf.json`` at the repo
root) so every PR lands with a measured before/after. Numbers depend on
the host; the platform block and free-text ``notes`` record where a
capture was taken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

from repro.engine import Engine


# ---------------------------------------------------------------------------
# Event-loop microbenchmark
# ---------------------------------------------------------------------------

def engine_microbench(target_events: int = 300_000, repeats: int = 5) -> dict:
    """Measure raw dispatch throughput of the event loop (best of N runs;
    shared CI boxes are noisy, and the best run is the least-perturbed one).

    The callback population mirrors what a simulation schedules: several
    periodic streams that collide on the same timestamp (core issue +
    controller wake at one cycle), plus free-running streams with co-prime
    periods so most timestamps carry a single event.
    """
    best = None
    for _ in range(repeats):
        run = _engine_microbench_once(target_events)
        if best is None or run["events_per_s"] > best["events_per_s"]:
            best = run
    best["repeats"] = repeats
    return best


def _engine_microbench_once(target_events: int) -> dict:
    engine = Engine()
    counter = [0]

    def make_recurring(period: int):
        def cb() -> None:
            counter[0] += 1
            engine.schedule(period, cb)
        return cb

    # Four streams sharing period 5 (same-cycle batches), three co-prime
    # free-runners, and one zero-delay chain emulating wake->issue pairs.
    for _ in range(4):
        engine.schedule(5, make_recurring(5))
    for period in (3, 7, 11):
        engine.schedule(period, make_recurring(period))

    def chained() -> None:
        counter[0] += 1
        engine.schedule(0, lambda: counter.__setitem__(0, counter[0] + 1))
        engine.schedule(13, chained)

    engine.schedule(13, chained)

    # Events per simulated cycle ~= 4/5 + 1/3 + 1/7 + 1/11 + 2/13 ~= 1.52.
    horizon = int(target_events / 1.52)
    start = time.perf_counter()
    engine.run(until=horizon)
    elapsed = time.perf_counter() - start
    events = engine.events_executed
    return {
        "events": events,
        "wall_s": round(elapsed, 4),
        "events_per_s": round(events / elapsed, 1),
    }


# ---------------------------------------------------------------------------
# Analytic-tier benchmark (closed-form surrogate at paper scale)
# ---------------------------------------------------------------------------

def analytic_bench(quanta: int = 20, repeats: int = 3) -> dict:
    """Wall cost of one *paper-scale* cell at the analytical tier.

    The event tier cannot run the paper's native scale (4 cores, 2MB
    LLC, 100M cycles) in CI — that is why :func:`repro.config.scaled_config`
    exists. The analytic tier's cost is independent of simulated cycles,
    so this benchmark runs the full-scale cell (20 x 5M-cycle quanta)
    and records whether it stays under the 10-second acceptance bound
    (see docs/fidelity.md). The profile memo cache is cleared before
    each timed run (cold = honest); ``warm_wall_s`` shows the memoised
    re-estimate cost a sweep over shared mixes actually pays.
    """
    from repro.analytic import reuse
    from repro.analytic.runner import run_analytic
    from repro.config import SystemConfig
    from repro.workloads.mixes import random_mixes

    config = SystemConfig()  # paper-scale platform: 2MB LLC, 5M quanta
    mix = random_mixes(1, config.num_cores, seed=42)[0]
    best = None
    result = None
    for _ in range(repeats):
        reuse._PROFILE_CACHE.clear()
        start = time.perf_counter()
        result = run_analytic(mix, config, quanta=quanta)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    start = time.perf_counter()
    run_analytic(mix, config, quanta=quanta)
    warm = time.perf_counter() - start
    cycles = quanta * config.quantum_cycles
    return {
        "cores": config.num_cores,
        "quanta": quanta,
        "cycles": cycles,
        "repeats": repeats,
        "wall_s": round(best, 4),
        "warm_wall_s": round(warm, 4),
        "cycles_per_s": round(cycles / best, 1),
        "under_10s": best < 10.0,
        "slowdowns": [round(s, 4) for s in result.mean_actual_slowdowns()],
    }


# ---------------------------------------------------------------------------
# Sweep benchmark (serial vs parallel campaign execution)
# ---------------------------------------------------------------------------

def _run_sweep(num_mixes: int, quanta: int, workers: int, seed: int):
    """One fig02-style survey; returns (survey, wall_seconds)."""
    from repro.experiments import error_comparison
    from repro.resilience import Campaign

    campaign = Campaign("perf_bench", None)
    kwargs = {}
    if workers > 1:
        kwargs["workers"] = workers
    start = time.perf_counter()
    result = error_comparison.run(
        sampled=False,
        num_mixes=num_mixes,
        quanta=quanta,
        seed=seed,
        campaign=campaign,
        **kwargs,
    )
    elapsed = time.perf_counter() - start
    return result.survey, elapsed


def _surveys_identical(a, b) -> bool:
    return (
        a.model_names == b.model_names
        and a.overall == b.overall
        and a.per_app == b.per_app
        and a.per_workload == b.per_workload
    )


def sweep_bench(num_mixes: int, quanta: int, workers: int, seed: int) -> dict:
    serial_survey, serial_s = _run_sweep(num_mixes, quanta, 1, seed)
    record = {
        "num_mixes": num_mixes,
        "quanta": quanta,
        "serial_wall_s": round(serial_s, 3),
    }
    if workers > 1:
        parallel_survey, parallel_s = _run_sweep(num_mixes, quanta, workers, seed)
        record.update(
            {
                "workers": workers,
                "parallel_wall_s": round(parallel_s, 3),
                "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
                "identical_results": _surveys_identical(
                    serial_survey, parallel_survey
                ),
            }
        )
    return record


# ---------------------------------------------------------------------------
# JSON capture
# ---------------------------------------------------------------------------

def merge_results(
    path: Path, section: str, record: dict, label: str,
    notes: Optional[str] = None,
) -> None:
    data = load_results(path)
    data.setdefault("platform", {}).update(
        {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        }
    )
    if notes:
        # Notes are a label-keyed dict (capture-host context per label);
        # never clobber notes recorded by earlier captures.
        block = data.setdefault("notes", {})
        if isinstance(block, dict):
            block[label] = notes
        else:  # pragma: no cover - legacy string field
            data["notes"] = {label: notes}
    data.setdefault(section, {})[label] = record
    from repro.durability.atomic import atomic_write_text

    atomic_write_text(str(path), json.dumps(data, indent=2, sort_keys=True) + "\n")


class BenchFileError(ValueError):
    """A benchmark JSON file exists but does not hold a capture object."""


def load_results(path: Path) -> dict:
    """The captures stored in ``path``; ``{}`` if it does not exist yet.

    A file that exists but does not parse raises :class:`BenchFileError`
    instead of reading as empty: the next write would replace its whole
    capture history with one new capture.
    """
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        raise BenchFileError(f"{path} is not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise BenchFileError(f"{path} does not hold a JSON object")
    return data


def merge_files(sources: Sequence[Path], dest: Path) -> dict:
    """Fold benchmark JSON files into ``dest`` (later sources win per label)."""
    merged = load_results(dest)
    for source in sources:
        incoming = load_results(source)
        for section, value in incoming.items():
            if isinstance(value, dict) and isinstance(merged.get(section), dict):
                merged[section].update(value)
            else:
                merged[section] = value
    from repro.durability.atomic import atomic_write_text

    atomic_write_text(str(dest), json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return merged


def compare_labels(path: Path, section: str, before: str, after: str) -> dict:
    """Relative change between two captures of one benchmark section."""
    data = load_results(path)
    block = data.get(section, {})
    if before not in block or after not in block:
        missing = [lbl for lbl in (before, after) if lbl not in block]
        raise KeyError(f"labels missing from {section!r}: {', '.join(missing)}")
    result = {"section": section, "before": before, "after": after}
    a, b = block[before], block[after]
    for key in ("events_per_s", "serial_wall_s", "parallel_wall_s"):
        if key in a and key in b and a[key]:
            result[key] = {
                "before": a[key],
                "after": b[key],
                "ratio": round(b[key] / a[key], 3),
            }
    return result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def legacy_main(argv=None) -> int:
    """The historical ``benchmarks/perf_bench.py`` interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="parallel workers for the sweep benchmark")
    parser.add_argument("--mixes", type=int, default=4,
                        help="workloads in the sweep benchmark")
    parser.add_argument("--quanta", type=int, default=2,
                        help="quanta per run in the sweep benchmark")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--micro-events", type=int, default=300_000,
                        help="approximate events in the microbenchmark")
    parser.add_argument("--micro-only", action="store_true",
                        help="run only the event-loop microbenchmarks")
    parser.add_argument("--sweep-only", action="store_true",
                        help="run only the sweep benchmark")
    parser.add_argument("--label", type=str, default="current",
                        help="label for this capture inside the JSON")
    parser.add_argument("--notes", type=str, default=None,
                        help="capture-host note stored in the JSON")
    parser.add_argument("--out", type=str,
                        default=str(REPO_ROOT / "BENCH_perf.json"))
    parser.add_argument("--check-equality", action="store_true",
                        help="exit non-zero unless parallel == serial and "
                             "the analytic cell meets its 10s bound")
    args = parser.parse_args(argv)

    out = Path(args.out)
    load_results(out)  # refuse a corrupt file before benchmarking
    status = 0

    if not args.sweep_only:
        micro = engine_microbench(args.micro_events)
        merge_results(out, "engine_microbench", micro, args.label,
                      notes=args.notes)
        print(f"engine_microbench[{args.label}]: "
              f"{micro['events_per_s']:,.0f} events/s "
              f"({micro['events']} events in {micro['wall_s']}s)")

        analytic = analytic_bench()
        merge_results(out, "analytic_bench", analytic, args.label,
                      notes=args.notes)
        print(f"analytic_bench[{args.label}]: paper-scale cell "
              f"({analytic['cycles']:,} cycles) in {analytic['wall_s']}s "
              f"cold / {analytic['warm_wall_s']}s warm "
              f"(under_10s={analytic['under_10s']})")
        if args.check_equality and not analytic["under_10s"]:
            print("ERROR: analytic tier exceeded the 10s paper-scale bound",
                  file=sys.stderr)
            status = 1

    if not args.micro_only:
        sweep = sweep_bench(args.mixes, args.quanta, args.workers, args.seed)
        merge_results(out, "sweep", sweep, args.label, notes=args.notes)
        print(f"sweep[{args.label}]: serial {sweep['serial_wall_s']}s", end="")
        if "parallel_wall_s" in sweep:
            print(f", {sweep['workers']} workers {sweep['parallel_wall_s']}s, "
                  f"speedup {sweep['speedup']}x, "
                  f"identical={sweep['identical_results']}")
            if args.check_equality and not sweep["identical_results"]:
                print("ERROR: parallel sweep results differ from serial",
                      file=sys.stderr)
                status = 1
        else:
            print()

    print(f"wrote {out}")
    return status


def bench_main(argv=None) -> int:
    """``repro bench`` verb: run / compare / merge."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Performance benchmarks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="capture benchmarks into a JSON file")
    # 'run' shares the legacy flag vocabulary wholesale.
    run_p.set_defaults(_passthrough=True)

    cmp_p = sub.add_parser("compare", help="compare two captured labels")
    cmp_p.add_argument("before")
    cmp_p.add_argument("after")
    cmp_p.add_argument("--section", default="engine_microbench")
    cmp_p.add_argument("--json", type=str,
                       default=str(REPO_ROOT / "BENCH_perf.json"))
    cmp_p.add_argument("--min-ratio", type=float, default=None,
                       help="exit 1 if after/before events_per_s falls "
                            "below this ratio (exit 2 if the section has "
                            "no events_per_s)")

    merge_p = sub.add_parser("merge", help="fold benchmark JSONs together")
    merge_p.add_argument("sources", nargs="+")
    merge_p.add_argument("--into", required=True)

    try:
        if argv and argv[0] == "run":
            # Everything after 'run' is the legacy vocabulary.
            return legacy_main(argv[1:])
        args = parser.parse_args(argv)
        if args.verb == "compare":
            return _compare(args)
        merged = merge_files([Path(s) for s in args.sources], Path(args.into))
    except BenchFileError as exc:
        print(f"repro bench: {exc}; left untouched", file=sys.stderr)
        return 2
    print(f"merged {len(args.sources)} file(s) into {args.into} "
          f"({len(merged)} sections)")
    return 0


def _compare(args: argparse.Namespace) -> int:
    try:
        result = compare_labels(
            Path(args.json), args.section, args.before, args.after
        )
    except KeyError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.min_ratio is None:
        return 0
    gated = result.get("events_per_s")
    if gated is None:
        # A section without the gated metric must not pass by default.
        print(f"repro bench: --min-ratio gates events_per_s, which section "
              f"{args.section!r} lacks in {args.before!r} or {args.after!r}",
              file=sys.stderr)
        return 2
    if gated["ratio"] < args.min_ratio:
        print(f"ERROR: throughput ratio {gated['ratio']} < {args.min_ratio}",
              file=sys.stderr)
        return 1
    return 0


__all__ = [
    "BenchFileError",
    "analytic_bench",
    "bench_main",
    "compare_labels",
    "engine_microbench",
    "legacy_main",
    "load_results",
    "merge_files",
    "merge_results",
    "sweep_bench",
]
