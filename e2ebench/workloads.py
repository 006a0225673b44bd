"""The benchmark's three workloads: inputs made from a seed, one batch call.

Each workload is a closed loop with one client: the benchmark process makes
one batch call into the program and waits for it. Every cell starts with
empty caches. The same seed always gives the same input, and a run repeats
that one input, so a faster program gets more repeats of the same work,
never a different mix of inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cloud.fleet import FleetSupervisor
from repro.cloud.spec import FleetChaosSpec, FleetSpec
from repro.cloud.tenants import tenant_stream
from repro.config import scaled_config
from repro.durability.store import read_payloads
from repro.experiments import error_comparison
from repro.harness import runner
from repro.models import AsmModel, FstModel, MiseModel, PtcaModel, StfmModel
from repro.policies import AsmCacheMemPolicy
from repro.resilience.campaign import Campaign, result_to_json
from repro.workloads.catalog import CATALOG, intensity_class
from repro.workloads.mixes import WorkloadMix

#: Worker processes of the fig02 sweep (the capture box has two CPUs).
SWEEP_WORKERS = 2
#: Fig. 2 surveys 10 mixes over 2 quanta; one quantum halves a run so that
#: a 40-second window still holds three repeats (README.md).
SWEEP_MIXES = 10
SWEEP_QUANTA = 1


def smoke_config():
    """A 100K-cycle quantum: every workload finishes in seconds."""
    return scaled_config().with_quantum(100_000, 5_000)


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one workload call produced, in the benchmark's terms."""

    cells: int  # campaign cells completed
    attempted: int  # digested units attempted
    digests: Dict[str, str]  # unit name -> result digest
    failed: Dict[str, str] = field(default_factory=dict)  # unit -> reason
    instructions: int = 0  # committed in the shared runs of all cells
    asm_err_pct: Optional[float] = None
    layers: Dict[str, float] = field(default_factory=dict)  # program-side counts


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is stable across processes (sha512, not hash()).
    return random.Random(f"{workload}:{seed}")


def _stored_results(store_dir: str) -> List[Dict[str, Any]]:
    """Every cell result the campaign persisted, in completion order."""
    path = os.path.join(store_dir, "runs.jsonl")
    if not os.path.exists(path):
        return []
    return [p["result"] for p in read_payloads(path) if isinstance(p, dict)]


def _final_instructions(result: Dict[str, Any]) -> int:
    records = result["records"]
    return sum(records[-1]["instructions"]) if records else 0


def _campaign_outcome(campaign: Campaign, store_dir: str,
                      expected: Sequence[str] = ()) -> Outcome:
    """Digest every stored cell and name every cell that failed."""
    stored = _stored_results(store_dir)
    digests = {r["mix"]["name"]: digest(r) for r in stored}
    failed = {f.mix_name: f"{f.error_type}: {f.message}" for f in campaign.failures}
    for name in expected:
        if name not in digests and name not in failed:
            failed[name] = "no stored result"
    return Outcome(
        cells=campaign.computed,
        attempted=len(set(digests) | set(failed)),
        digests=digests,
        failed=failed,
        instructions=sum(_final_instructions(r) for r in stored),
        layers={
            "campaign.cells": campaign.computed + campaign.resumed,
            "campaign.retries": campaign.retry_attempts,
            "campaign.failures": len(campaign.failures),
        },
    )


class CellMem:
    """One scaled 4-core event-tier cell: every estimator plus ASM-Cache-Mem.

    Four distinct apps from the high-intensity class keep the controller
    queues deep; two quanta let the policy repartition after the first.
    """

    name = "cell-mem"

    def __init__(self, seed: int, smoke: bool, store_dir: str) -> None:
        rng = _rng(self.name, seed)
        high = sorted(n for n, s in CATALOG.items() if intensity_class(s) == "high")
        apps = rng.sample(high, 4)
        self.mix = WorkloadMix(
            name="cell-" + "+".join(apps),
            specs=tuple(CATALOG[a] for a in apps),
            seed=rng.randrange(1 << 20),
        )
        self.config = smoke_config() if smoke else scaled_config()
        sets = self.config.ats_sampled_sets
        self.models: Dict[str, Callable[[], Any]] = {
            "fst": lambda: FstModel(filter_counters=None),
            "ptca": lambda: PtcaModel(sampled_sets=None),
            "asm": lambda: AsmModel(sampled_sets=sets),
            "mise": MiseModel,
            "stfm": StfmModel,
        }
        self.result: Any = None

    def call(self, system_hooks: Sequence[Callable[[Any], None]] = ()) -> None:
        # Through the module attribute, so a traced run sees the call.
        self.result = runner.run_workload(
            self.mix,
            self.config,
            model_factories=self.models,
            policy_factories=[lambda models: AsmCacheMemPolicy(models["asm"])],
            quanta=2,
            alone_cache=runner.AloneRunCache(),
            system_hooks=system_hooks,
        )

    def outcome(self) -> Outcome:
        payload = result_to_json(self.result)
        return Outcome(
            cells=1,
            attempted=1,
            digests={self.mix.name: digest(payload)},
            instructions=_final_instructions(payload),
            asm_err_pct=self.result.mean_error("asm"),
        )


class SweepFig02:
    """The Fig. 2 survey: ``error_comparison.run(sampled=False)``.

    The program draws its stratified random mixes from the seed and runs
    them through the pool into a fresh campaign store.
    """

    name = "sweep-fig02"

    def __init__(self, seed: int, smoke: bool, store_dir: str) -> None:
        self.seed = seed
        self.config = smoke_config() if smoke else None
        self.num_mixes = 2 if smoke else SWEEP_MIXES
        self.store_dir = store_dir
        self.campaign = Campaign("fig02", store_dir=store_dir, keep_going=True)
        self.result: Any = None

    def call(self, system_hooks: Sequence[Callable[[Any], None]] = ()) -> None:
        self.result = error_comparison.run(
            sampled=False,
            num_mixes=self.num_mixes,
            quanta=SWEEP_QUANTA,
            config=self.config,
            seed=self.seed,
            campaign=self.campaign,
            workers=SWEEP_WORKERS,
        )

    def outcome(self) -> Outcome:
        # random_mixes names its mixes mix000, mix001, ...
        expected = [f"mix{i:03d}" for i in range(self.num_mixes)]
        outcome = _campaign_outcome(self.campaign, self.store_dir, expected)
        outcome.asm_err_pct = self.result.survey.mean_error("asm")
        return outcome


class FleetAnalytic:
    """A FleetSupervisor run of 2-core nodes on the analytic tier.

    A seeded tenant stream with hogs, node-kill chaos, ASM placement, one
    worker and a fresh store. Node kills are workload content, pinned by
    the fleet digest, not failures.
    """

    name = "fleet-analytic"
    #: The stream's composition, fixed so that every seed asks for about the
    #: same profiling work: one reuse profile per distinct app and core, and
    #: every hog is an app of its own (README.md).
    HOGS = 16
    CATALOG_APPS = 23

    def __init__(self, seed: int, smoke: bool, store_dir: str) -> None:
        rng = _rng(self.name, seed)
        # Arrivals match capacity (8 nodes x 2 cores, 2 quanta per tenant),
        # so every tenant is served; a saturated fleet would shed a
        # seed-dependent share of them. ``rounds`` is only a cap: the run
        # ends after about 10 rounds, once the stream is served.
        nodes = 2 if smoke else 8
        spec = FleetSpec(
            name="bench",
            num_nodes=nodes,
            cores_per_node=2,
            rounds=4 if smoke else 40,
            num_tenants=4 if smoke else 64,
            arrivals_per_round=nodes,
            tenant_quanta=2,
            hog_fraction=0.25,
            placement="asm",
            fidelity="analytical",
            chaos=FleetChaosSpec(node_kill_rate=0.1, seed=rng.randrange(1 << 20)),
        )
        # The first stream seed drawn whose stream has that composition.
        while True:
            spec = dataclasses.replace(spec, seed=rng.randrange(1 << 20))
            tenants = tenant_stream(spec)
            if smoke or (
                sum(t.is_hog for t in tenants) == self.HOGS
                and len({t.spec.name for t in tenants if not t.is_hog})
                == self.CATALOG_APPS
            ):
                break
        self.spec = spec
        self.config = scaled_config()
        self.store_dir = store_dir
        self.campaign = Campaign("fleet", store_dir=store_dir)
        self.result: Any = None

    def call(self, system_hooks: Sequence[Callable[[Any], None]] = ()) -> None:
        self.result = FleetSupervisor(
            self.spec, self.config, self.campaign, workers=1
        ).run()

    def outcome(self) -> Outcome:
        outcome = _campaign_outcome(self.campaign, self.store_dir)
        outcome.digests["fleet"] = digest(self.result.digest())
        outcome.attempted += 1
        outcome.layers["cloud.rounds"] = len(self.result.rounds)
        return outcome


WORKLOADS = {w.name: w for w in (CellMem, SweepFig02, FleetAnalytic)}
