"""Command-line interface: run any of the paper's experiments.

::

    python -m repro list
    python -m repro fig02 --mixes 10 --quanta 2
    python -m repro fig09 --quanta 3 --out results/fig09.txt

Every experiment accepts ``--mixes`` (workloads per configuration) and
``--quanta`` (quanta per run); the defaults match the benchmark suite.

Campaign resilience (see ``repro.resilience``): per-mix results are
checkpointed under ``--campaign-dir`` (default ``results/.campaign``),
``--resume`` reuses checkpointed results instead of recomputing them,
``--keep-going`` turns a per-mix crash into a replayable failure record
instead of aborting the sweep, and ``--check-invariants`` enables the
conservation-law guards on every simulated quantum.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.analytic.runner import FIDELITY_TIERS
from repro.experiments import (
    ablations,
    db_workloads,
    error_comparison,
    fig01_car_proxy,
    fig04_error_distribution,
    fig05_prefetching,
    fig06_latency_distribution,
    fig07_core_count,
    fig08_cache_size,
    fig09_asm_cache,
    fig10_asm_mem,
    fig11_qos,
    fidelity_sweep,
    fleet_qos,
    sec64_mise_vs_asm,
    sec72_combined,
    table3_quantum_epoch,
    telemetry_faults,
)


def _supported(run, extras: dict) -> dict:
    """Keep only the extras the driver's ``run`` signature accepts."""
    params = inspect.signature(run).parameters
    return {k: v for k, v in extras.items() if v is not None and k in params}


def _with_scale(run, **fixed):
    def runner(mixes: Optional[int], quanta: Optional[int], **extras):
        kwargs = dict(fixed)
        if mixes:
            kwargs["num_mixes"] = mixes
        if quanta:
            kwargs["quanta"] = quanta
        kwargs.update(_supported(run, extras))
        return run(**kwargs)

    runner.supports = set(inspect.signature(run).parameters)
    return runner


def _per_core_count(run):
    def runner(mixes: Optional[int], quanta: Optional[int], **extras):
        kwargs = {}
        if mixes:
            kwargs["mixes_per_count"] = {4: mixes, 8: mixes, 16: mixes}
        if quanta:
            kwargs["quanta"] = quanta
        kwargs.update(_supported(run, extras))
        return run(**kwargs)

    runner.supports = set(inspect.signature(run).parameters)
    return runner


def _fixed_scale(run):
    def runner(mixes: Optional[int], quanta: Optional[int], **extras):
        kwargs = {}
        if quanta:
            kwargs["quanta"] = quanta
        kwargs.update(_supported(run, extras))
        return run(**kwargs)

    runner.supports = set(inspect.signature(run).parameters)
    return runner


EXPERIMENTS: Dict[str, Callable] = {
    "fig01": _fixed_scale(fig01_car_proxy.run),
    "fig02": _with_scale(error_comparison.run, sampled=False),
    "fig03": _with_scale(error_comparison.run, sampled=True),
    "fig04": _with_scale(fig04_error_distribution.run),
    "fig05": _with_scale(fig05_prefetching.run),
    "fig06": _with_scale(fig06_latency_distribution.run, sampled=False),
    "fig06-sampled": _with_scale(fig06_latency_distribution.run, sampled=True),
    "fig07": _per_core_count(fig07_core_count.run),
    "fig08": _with_scale(fig08_cache_size.run),
    "fig09": _per_core_count(fig09_asm_cache.run),
    "fig10": _per_core_count(fig10_asm_mem.run),
    "fig11": _fixed_scale(fig11_qos.run),
    "table3": _with_scale(table3_quantum_epoch.run),
    "sec64": _with_scale(sec64_mise_vs_asm.run),
    "sec72": _with_scale(sec72_combined.run),
    "db": _with_scale(db_workloads.run),
    "ablations": _with_scale(ablations.run),
    "telemetry-faults": _with_scale(telemetry_faults.run),
    "fleet": _fixed_scale(fleet_qos.run),
    "fidelity": _with_scale(fidelity_sweep.run),
}

DESCRIPTIONS = {
    "fig01": "CAR is a proxy for performance",
    "fig02": "error per benchmark, unsampled structures",
    "fig03": "error per benchmark, sampled ATS / small filter",
    "fig04": "error distribution",
    "fig05": "error with a stride prefetcher",
    "fig06": "alone miss latency distributions (unsampled)",
    "fig06-sampled": "alone miss latency distributions (sampled)",
    "fig07": "error vs core count",
    "fig08": "error vs cache capacity",
    "fig09": "ASM-Cache vs NoPart/UCP/MCFQ",
    "fig10": "ASM-Mem vs FRFCFS/PARBS/TCM/BLISS",
    "fig11": "ASM-QoS soft slowdown guarantees",
    "table3": "ASM error vs quantum/epoch lengths",
    "sec64": "MISE vs ASM",
    "sec72": "ASM-Cache-Mem vs PARBS+UCP",
    "db": "database workloads (TPC-C/YCSB)",
    "ablations": "ASM design-choice ablations",
    "telemetry-faults": "chaos suite: estimator robustness under counter faults",
    "fleet": "fleet tier: placement policy, chaos robustness, fair pricing",
    "fidelity": "fidelity sweep: per-tier runtime vs divergence from the oracle",
}

DEFAULT_CAMPAIGN_DIR = os.path.join("results", ".campaign")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ASM paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment to run, or 'list' to enumerate them",
    )
    parser.add_argument("--mixes", type=int, default=0,
                        help="workloads per configuration")
    parser.add_argument("--quanta", type=int, default=0,
                        help="quanta per run")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload-generation seed override")
    parser.add_argument("--out", type=str, default="",
                        help="also write the table to this file")
    parser.add_argument("--campaign-dir", type=str,
                        default=DEFAULT_CAMPAIGN_DIR,
                        help="checkpoint store root ('' disables the store)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse checkpointed per-mix results")
    parser.add_argument("--keep-going", action="store_true",
                        help="record per-mix failures and finish the sweep")
    parser.add_argument("--check-invariants", action="store_true",
                        help="validate conservation laws every quantum")
    parser.add_argument("--wall-clock-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="abort any quantum exceeding this wall-clock "
                             "budget (per run_quantum call)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for per-mix fan-out "
                             "(1 = serial; results are identical)")
    parser.add_argument("--max-retries", type=int, default=0, metavar="N",
                        help="retry a failed cell up to N times (with "
                             "backoff and a per-cell circuit breaker; "
                             "0 = fail immediately)")
    parser.add_argument("--retry-backoff", type=float, default=0.05,
                        metavar="SECONDS",
                        help="base backoff before the first retry; doubles "
                             "per attempt with deterministic jitter")
    parser.add_argument("--cell-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="give up retrying a cell once it has consumed "
                             "this much wall-clock time")
    parser.add_argument("--telemetry-faults", type=str, default="",
                        metavar="CLASS[:RATE]",
                        help="inject deterministic telemetry counter faults "
                             "into every model (e.g. dropped-read:0.05); see "
                             "'repro telemetry-faults' for the full sweep")
    parser.add_argument("--telemetry-seed", type=int, default=0,
                        help="seed for the telemetry fault injector")
    parser.add_argument("--fidelity", type=str, default=None,
                        choices=FIDELITY_TIERS,
                        help="fidelity tier: 'analytical' is the closed-form "
                             "surrogate (no simulation), 'event' the oracle "
                             "(default; see docs/fidelity.md)")
    parser.add_argument("--profile", action="store_true",
                        help="time every computed cell and print the "
                             "per-cell timing table; snapshots per-quantum "
                             "metrics into the campaign store")
    return parser


def _unknown_experiment(name: str) -> int:
    valid = ", ".join(sorted(EXPERIMENTS))
    sys.stderr.write(
        f"repro: unknown experiment '{name}'.\n"
        f"Valid experiments: {valid}\n"
        f"Run 'python -m repro list' for descriptions.\n"
    )
    return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The observability verbs have their own argument vocabulary; dispatch
    # before the experiment parser so 'repro trace --help' behaves.
    if argv and argv[0] == "trace":
        from repro.obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.obs.cli import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.durability.cli import campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "cloud":
        from repro.cloud.cli import cloud_main

        return cloud_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:14s} {DESCRIPTIONS[name]}")
        print(f"{'trace':14s} capture/inspect structured traces "
              "(repro trace show|summarize)")
        print(f"{'profile':14s} stage timers + cProfile on a small mix")
        print(f"{'campaign':14s} verify/repair/compact checkpoint stores "
              "(repro campaign verify|repair|compact)")
        print(f"{'cloud':14s} slowdown-aware fleet tier "
              "(repro cloud run|report)")
        return 0
    if args.experiment not in EXPERIMENTS:
        return _unknown_experiment(args.experiment)

    from repro.resilience import Campaign

    store_dir = (
        os.path.join(args.campaign_dir, args.experiment)
        if args.campaign_dir
        else None
    )
    retry_policy = None
    if args.max_retries > 0 or args.cell_budget is not None:
        from repro.durability import RetryPolicy

        # --max-retries counts *extra* attempts beyond the first.
        retry_policy = RetryPolicy(
            max_attempts=args.max_retries + 1,
            backoff_s=args.retry_backoff,
            cell_budget_s=args.cell_budget,
        )
    campaign = Campaign(
        args.experiment,
        store_dir,
        resume=args.resume,
        keep_going=args.keep_going,
        check_invariants=args.check_invariants,
        wall_clock_budget_s=args.wall_clock_budget,
        profile=args.profile,
        retry_policy=retry_policy,
    )

    runner = EXPERIMENTS[args.experiment]
    if args.workers > 1 and "workers" not in getattr(runner, "supports", ()):
        sys.stderr.write(
            f"repro: '{args.experiment}' does not support --workers; "
            "running serially.\n"
        )
    telemetry = None
    if args.telemetry_faults:
        from repro.telemetry import TelemetrySpec

        try:
            telemetry = TelemetrySpec.parse(
                args.telemetry_faults, seed=args.telemetry_seed
            )
        except ValueError as exc:
            sys.stderr.write(f"repro: {exc}\n")
            return 2
        if "telemetry" not in getattr(runner, "supports", ()):
            sys.stderr.write(
                f"repro: '{args.experiment}' does not support "
                "--telemetry-faults; running with perfect telemetry.\n"
            )
            telemetry = None

    fidelity = args.fidelity
    if fidelity and "fidelity" not in getattr(runner, "supports", ()):
        sys.stderr.write(
            f"repro: '{args.experiment}' does not support --fidelity; "
            "running at the configured engine's tier.\n"
        )
        fidelity = None

    start = time.time()
    result = runner(
        args.mixes or None,
        args.quanta or None,
        seed=args.seed,
        campaign=campaign,
        workers=args.workers if args.workers > 1 else None,
        telemetry=telemetry,
        fidelity=fidelity,
    )
    table = result.format_table()
    print(table)
    print(f"\n[{args.experiment} finished in {time.time() - start:.1f}s]")
    if campaign.computed or campaign.resumed or campaign.failures:
        print(campaign.summary())
    if args.profile and campaign.cell_timings:
        print("\ncell timings:")
        print(campaign.timing_table())
    if campaign.degraded:
        print("degraded cells:")
        print(campaign.degraded_summary())
    if campaign.failures:
        print(campaign.failure_summary())
    if args.out:
        from repro.durability.atomic import atomic_write_text

        atomic_write_text(args.out, table + "\n")
    return 1 if campaign.failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
