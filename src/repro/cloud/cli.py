"""``repro cloud run|report`` — drive and inspect fleet runs.

``run`` builds a :class:`~repro.cloud.spec.FleetSpec` from flags, runs
it under a resumable campaign store, prints the fleet summary and the
per-round dashboard, and (with ``--out``) atomically writes the
deterministic digest JSON. ``report`` re-renders a finished (or
crashed) fleet from its durable stores without re-running anything —
the keyed ``fleet.jsonl``/``billing.jsonl`` logs are the whole
dashboard, and both verbs print its per-round lines from the same
round records.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analytic.runner import FIDELITY_TIERS
from repro.cloud.spec import (
    BILLING_MODES,
    FleetChaosSpec,
    FleetSpec,
    PLACEMENT_POLICIES,
)
from repro.models.base import POLICY_CONFIDENCE_FLOOR
from repro.telemetry.spec import FAULT_CLASSES

#: Default campaign store root for fleet runs.
DEFAULT_STORE = os.path.join("results", ".campaign", "cloud")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cloud",
        description="slowdown-aware fleet tier: run and report",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one fleet under a campaign store")
    run.add_argument("--name", default="fleet", help="fleet/store name")
    run.add_argument("--nodes", type=int, default=4)
    run.add_argument("--cores", type=int, default=2,
                     help="cores (tenant slots) per node")
    run.add_argument("--rounds", type=int, default=8)
    run.add_argument("--quanta", type=int, default=1,
                     help="quanta each node simulates per round")
    run.add_argument("--tenants", type=int, default=8)
    run.add_argument("--arrivals", type=int, default=4,
                     help="tenant arrivals per round")
    run.add_argument("--tenant-quanta", type=int, default=2,
                     help="demand (quanta) per tenant")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--placement", choices=PLACEMENT_POLICIES,
                     default="asm")
    run.add_argument("--sla", type=float, default=3.0,
                     help="slowdown SLA promised to every tenant")
    run.add_argument("--floor", type=float, default=None,
                     help="confidence floor (default: policy floor)")
    run.add_argument("--hog-fraction", type=float, default=0.0)
    run.add_argument("--billing", choices=BILLING_MODES, default="fair")
    run.add_argument("--fidelity", choices=FIDELITY_TIERS, default="event",
                     help="fidelity tier for node rounds; 'analytical' is "
                          "the closed-form surrogate (see docs/fidelity.md)")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--kill-rate", type=float, default=0.0)
    run.add_argument("--straggler-rate", type=float, default=0.0)
    run.add_argument("--telemetry-rate", type=float, default=0.0)
    run.add_argument("--telemetry-class", default="dropped_read",
                     choices=FAULT_CLASSES)
    run.add_argument("--chaos-seed", type=int, default=0)
    run.add_argument("--store", default=DEFAULT_STORE,
                     help="campaign store root ('' disables persistence)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the store's checkpoints")
    run.add_argument("--quantum-cycles", type=int, default=None)
    run.add_argument("--epoch-cycles", type=int, default=None)
    run.add_argument("--out", default="",
                     help="write the digest JSON here (atomic)")

    report = sub.add_parser(
        "report", help="re-render a fleet from its durable stores"
    )
    report.add_argument("store", help="campaign store root of the fleet")
    return parser


def _round_lines(rounds: Sequence[Dict[str, Any]]) -> List[str]:
    """The per-round dashboard: one line per fleet round record."""
    return [
        f"  r{r['round']:04d} mode={r['mode']:5s} "
        f"conf={r['confidence_out']:.3f} "
        f"placed={len(r.get('placements', []))} "
        f"queue={len(r.get('queue', []))} shed={r.get('shed', [])} "
        f"kills={r.get('kills', [])} migrated={r.get('migrated', [])} "
        f"violations={r.get('violations', [])}"
        for r in rounds
    ]


def _fleet_name(key: str, parts: int) -> str:
    """The fleet name in front of the last ``parts`` components of a
    ``fleet.jsonl`` or ``billing.jsonl`` key; '' for an unprefixed key."""
    split = key.rsplit("/", parts)
    return split[0] if len(split) > parts else ""


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.cloud.fleet import FleetSupervisor
    from repro.config import scaled_config
    from repro.resilience.campaign import Campaign

    spec = FleetSpec(
        name=args.name,
        num_nodes=args.nodes,
        cores_per_node=args.cores,
        rounds=args.rounds,
        quanta_per_round=args.quanta,
        seed=args.seed,
        num_tenants=args.tenants,
        arrivals_per_round=args.arrivals,
        tenant_quanta=args.tenant_quanta,
        sla_slowdown=args.sla,
        placement=args.placement,
        hog_fraction=args.hog_fraction,
        billing=args.billing,
        fidelity=args.fidelity,
        confidence_floor=(
            args.floor
            if args.floor is not None
            else POLICY_CONFIDENCE_FLOOR
        ),
        chaos=FleetChaosSpec(
            node_kill_rate=args.kill_rate,
            straggler_rate=args.straggler_rate,
            telemetry_rate=args.telemetry_rate,
            telemetry_class=args.telemetry_class,
            seed=args.chaos_seed,
        ),
    )
    config = scaled_config()
    if args.quantum_cycles is not None:
        config = config.with_quantum(
            args.quantum_cycles,
            args.epoch_cycles or config.epoch_cycles,
        )
    store_dir = (
        os.path.join(args.store, args.name) if args.store else None
    )
    campaign = Campaign(
        f"cloud-{args.name}", store_dir,
        resume=args.resume, keep_going=True,
    )
    supervisor = FleetSupervisor(
        spec, config, campaign, workers=args.workers
    )
    result = supervisor.run()
    print(result.summary())
    print("\n".join(_round_lines(result.rounds)))
    print()
    print(campaign.summary())
    if args.out:
        from repro.durability.atomic import atomic_write_text

        atomic_write_text(
            args.out,
            json.dumps(result.digest(), sort_keys=True) + "\n",
        )
        print(f"digest written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.durability.store import KeyedLog

    fleet_path = os.path.join(args.store, "fleet.jsonl")
    billing_path = os.path.join(args.store, "billing.jsonl")
    if not os.path.exists(fleet_path):
        print(f"no fleet log at {fleet_path}")
        return 1
    rounds = KeyedLog(fleet_path).records()
    billing = KeyedLog(billing_path).records()
    charges: Dict[Tuple[str, int], float] = {}
    bound_basis = 0
    for record in billing:
        tenant = (_fleet_name(record["key"], 2), int(record["tenant_id"]))
        charges[tenant] = charges.get(tenant, 0.0) + float(record["charge"])
        if record.get("basis") == "bound":
            bound_basis += 1
    print(f"fleet store {args.store}: {len(rounds)} round(s), "
          f"{len(billing)} billing record(s)")
    naive = sum(1 for r in rounds if r.get("mode") == "naive")
    kills = sum(len(r.get("kills", [])) for r in rounds)
    migrated = sum(len(r.get("migrated", [])) for r in rounds)
    violations = sum(len(r.get("violations", [])) for r in rounds)
    print(f"  modes: {len(rounds) - naive} asm / {naive} naive; "
          f"{kills} kill(s), {migrated} migration(s), "
          f"{violations} violation round-entries, "
          f"{bound_basis} bound-basis invoice line(s)")
    fleets: Dict[str, List[Dict[str, Any]]] = {}
    for record in rounds:
        fleets.setdefault(_fleet_name(record["key"], 1), []).append(record)
    for name, fleet_rounds in fleets.items():
        indent = ""
        if len(fleets) > 1:
            print(f"  fleet {name}:")
            indent = "  "
        for line in _round_lines(fleet_rounds):
            print(indent + line)
    if charges:
        total = sum(charges.values())
        print(f"  billed total: {total:.3f} across "
              f"{len(charges)} tenant(s)")
    return 0


def cloud_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro cloud`` verb."""
    args = _build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    if args.verb == "run":
        return _cmd_run(args)
    return _cmd_report(args)


__all__ = ["cloud_main"]
