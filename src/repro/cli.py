"""Command-line interface: run any of the paper's experiments.

::

    python -m repro list
    python -m repro fig02 --mixes 10 --quanta 2
    python -m repro fig09 --quanta 3 --out results/fig09.txt

``--mixes`` (workloads per configuration) and ``--quanta`` (quanta per
run) scale an experiment; the defaults are the driver's own. A flag
the experiment's driver takes no parameter for is ignored with a
warning (see :class:`Driver`).

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
from typing import Any, Callable, Dict

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


class Driver:
    """An experiment's ``run``, adapted to the CLI's flags.

    The flags are ``mixes``, ``quanta``, ``seed``, ``campaign``,
    ``workers``, ``telemetry`` and ``fidelity``. Each reaches ``run``
    only when its signature has the parameter: ``mixes`` becomes
    ``num_mixes``, or ``mixes_per_count`` for every default core count.
    """

    def __init__(self, run: Callable[..., Any], **fixed: Any) -> None:
        self.run = run
        self.fixed = fixed
        self.params = inspect.signature(run).parameters

    def param(self, flag: str) -> str:
        """The ``run`` parameter ``flag`` feeds; empty when there is none."""
        names = (flag,)
        if flag == "mixes":
            names = ("num_mixes", "mixes_per_count")
        return next((name for name in names if name in self.params), "")

    def kwargs(self, **flags: Any) -> Dict[str, Any]:
        """``run``'s arguments: the fixed ones plus each set flag it takes."""
        kwargs = dict(self.fixed)
        for flag, value in flags.items():
            name = self.param(flag)
            if value is None or not name:
                continue
            if name == "mixes_per_count":
                counts = self.params["core_counts"].default
                value = dict.fromkeys(counts, value)
            kwargs[name] = value
        return kwargs

    def __call__(self, **flags: Any) -> Any:
        return self.run(**self.kwargs(**flags))


EXPERIMENTS: Dict[str, Driver] = {
    "fig01": Driver(fig01_car_proxy.run),
    "fig02": Driver(error_comparison.run, sampled=False),
    "fig03": Driver(error_comparison.run, sampled=True),
    "fig04": Driver(fig04_error_distribution.run),
    "fig05": Driver(fig05_prefetching.run),
    "fig06": Driver(fig06_latency_distribution.run, sampled=False),
    "fig06-sampled": Driver(fig06_latency_distribution.run, sampled=True),
    "fig07": Driver(fig07_core_count.run),
    "fig08": Driver(fig08_cache_size.run),
    "fig09": Driver(fig09_asm_cache.run),
    "fig10": Driver(fig10_asm_mem.run),
    "fig11": Driver(fig11_qos.run),
    "table3": Driver(table3_quantum_epoch.run),
    "sec64": Driver(sec64_mise_vs_asm.run),
    "sec72": Driver(sec72_combined.run),
    "db": Driver(db_workloads.run),
    "ablations": Driver(ablations.run),
    "telemetry-faults": Driver(telemetry_faults.run),
    "fleet": Driver(fleet_qos.run),
    "fidelity": Driver(fidelity_sweep.run),
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

#: (option, the Driver flag it feeds, what a driver without that flag does).
IGNORABLE_OPTIONS = (
    ("--mixes", "mixes", "running its default workloads"),
    ("--quanta", "quanta", "running its default quanta"),
    ("--workers", "workers", "running serially"),
    ("--telemetry-faults", "telemetry", "running with perfect telemetry"),
    ("--fidelity", "fidelity", "running at the configured engine's tier"),
) + tuple(
    (option, "campaign", "running without checkpoints, retries or checks")
    for option in (
        "--campaign-dir", "--resume", "--keep-going", "--check-invariants",
        "--wall-clock-budget", "--max-retries", "--retry-backoff",
        "--cell-budget", "--profile",
    )
)


def _bounded(
    kind: Callable[[str], Any], low: float, strict: bool = False
) -> Callable[[str], Any]:
    """An argparse ``type`` parsing ``kind`` that rejects values below
    ``low`` (or at it, when ``strict``), so the flag exits 2 at parse time."""

    def parse(text: str) -> Any:
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ASM paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment to run, or 'list' to enumerate them",
    )
    parser.add_argument("--mixes", type=_bounded(int, 0), default=0,
                        help="workloads per configuration")
    parser.add_argument("--quanta", type=_bounded(int, 0), default=0,
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
    parser.add_argument("--wall-clock-budget", default=None,
                        type=_bounded(float, 0, strict=True),
                        metavar="SECONDS",
                        help="abort any quantum exceeding this wall-clock "
                             "budget (per run_quantum call)")
    parser.add_argument("--workers", type=_bounded(int, 1), default=1,
                        metavar="N",
                        help="worker processes for per-mix fan-out "
                             "(1 = serial; results are identical)")
    parser.add_argument("--max-retries", type=_bounded(int, 0), default=0,
                        metavar="N",
                        help="retry a failed cell up to N times (with "
                             "backoff and a per-cell circuit breaker; "
                             "0 = fail immediately)")
    parser.add_argument("--retry-backoff", type=_bounded(float, 0),
                        default=0.05,
                        metavar="SECONDS",
                        help="base backoff before the first retry; doubles "
                             "per attempt with deterministic jitter")
    parser.add_argument("--cell-budget", default=None,
                        type=_bounded(float, 0, strict=True),
                        metavar="SECONDS",
                        help="give up retrying a cell once its own "
                             "attempts and backoffs took this much "
                             "wall-clock time")
    parser.add_argument("--telemetry-faults", type=str, default="",
                        metavar="CLASS[:RATE]",
                        help="inject deterministic telemetry counter faults "
                             "into every model (e.g. dropped-read:0.05); see "
                             "'repro telemetry-faults' for the full sweep")
    parser.add_argument("--fidelity", type=str, default=None,
                        choices=FIDELITY_TIERS,
                        help="fidelity tier: 'analytical' is the closed-form "
                             "surrogate (no simulation), 'event' the oracle "
                             "(default; see docs/fidelity.md)")
    parser.add_argument("--profile", action="store_true",
                        help="time every computed cell and print the "
                             "per-cell timing table; persists each cell's "
                             "per-quantum trace events (quantum, model, "
                             "guard, policy) in the campaign store's "
                             "metrics.jsonl")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(f"{name:14s} {DESCRIPTIONS[name]}")
        print(f"{'trace':14s} capture/inspect structured traces "
              "(repro trace show|summarize)")
        print(f"{'profile':14s} whole-run spans + cProfile on a small mix")
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

    telemetry = None
    if args.telemetry_faults:
        from repro.telemetry import TelemetrySpec

        try:
            telemetry = TelemetrySpec.parse(args.telemetry_faults)
        except ValueError as exc:
            sys.stderr.write(f"repro: {exc}\n")
            return 2

    runner = EXPERIMENTS[args.experiment]
    for option, flag, fallback in IGNORABLE_OPTIONS:
        dest = option[2:].replace("-", "_")
        given = getattr(args, dest) != parser.get_default(dest)
        if given and not runner.param(flag):
            sys.stderr.write(
                f"repro: '{args.experiment}' does not support {option}; "
                f"{fallback}.\n"
            )

    start = time.time()
    result = runner(
        mixes=args.mixes or None,
        quanta=args.quanta or None,
        seed=args.seed,
        campaign=campaign,
        workers=args.workers if args.workers > 1 else None,
        telemetry=telemetry,
        fidelity=args.fidelity,
    )
    table = result.format_table()
    print(table)
    print(f"\n[{args.experiment} finished in {time.time() - start:.1f}s]")
    if campaign.computed or campaign.resumed or campaign.failures:
        print(campaign.summary())
    if args.profile and campaign.cell_timings:
        print("\ncell timings:")
        print(campaign.timing_table())
    if campaign.failures:
        print(campaign.failure_summary())
    if args.out:
        from repro.durability.atomic import atomic_write_text

        atomic_write_text(args.out, table + "\n")
    return 1 if campaign.failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
