"""Figure 6: distributions of *alone* miss service times — actually
measured versus estimated by FST, PTCA and ASM.

For each memory-intensive workload and application we obtain:

* **actual**: mean miss service time measured in a real alone run;
* **ASM**: the epoch-based aggregate estimate (``epoch-miss-time /
  epoch-misses`` while prioritised);
* **FST / PTCA**: the per-request estimate (measured shared latency minus
  attributed interference, averaged).

The paper's point: per-request subtraction misestimates the distribution,
and sampling makes PTCA's estimates far worse, while ASM's aggregate
estimate tracks the measured distribution closely.

The one driver that submits no campaign cells: it reads each model's
internals (its last quantum's alone miss-time estimates), which a cell's
result does not carry. So it builds the shared system, attaches the models
and runs the quanta itself; it never simulates the alone legs a cell's
ground-truth slowdowns need, only the alone runs it measures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import format_table, sampled_models, unsampled_models
from repro.harness.system import System
from repro.harness import metrics
from repro.models.asm import AsmModel
from repro.models.base import OutstandingTracker
from repro.models.fst import FstModel
from repro.models.ptca import PtcaModel
from repro.workloads.catalog import CATALOG, intensity_class
from repro.workloads.mixes import WorkloadMix, random_mixes


def _alone_miss_times(
    mix: WorkloadMix, core: int, config: SystemConfig, cycles: int
) -> tuple:
    """Measure the application's alone miss service time two ways:

    * per-request mean latency — the quantity FST/PTCA estimate;
    * union-based (cycles with >= 1 outstanding miss / misses) — exactly
      Table 1's ``miss-time / misses`` definition that ASM estimates.
      Under memory-level parallelism the union average is smaller than the
      per-request mean; comparing each model against its own quantity is
      the meaningful accuracy check.
    """
    alone = dataclasses.replace(config, num_cores=1)
    system = System(alone, [mix.trace_for_core(core)], enable_epochs=False)
    latencies: List[int] = []
    system.controller.completion_listeners.append(
        lambda req: latencies.append(req.latency)
    )
    outstanding = OutstandingTracker()
    misses = 0

    def service_listener(c, is_hit, is_start, now):
        nonlocal misses
        if is_hit:
            return
        if is_start:
            outstanding.start(now)
            misses += 1
        else:
            outstanding.end(now)

    system.hierarchy.service_listeners.append(service_listener)
    system.run_until(cycles)
    per_request = (
        metrics.mean(latencies) + config.llc.latency if latencies else float("nan")
    )
    union_avg = outstanding.busy_cycles / misses if misses else float("nan")
    return per_request, union_avg


@dataclass
class LatencyDistributionResult:
    # model -> list of per-(workload, app) average alone miss times
    estimates: Dict[str, List[float]] = field(default_factory=dict)
    sampled: bool = False

    # Each model is judged against the quantity it estimates: ASM against
    # the union-based average (Table 1 semantics), FST/PTCA against the
    # per-request mean.
    REFERENCE = {"asm": "actual_union", "fst": "actual", "ptca": "actual"}

    def mean_abs_deviation(self, model: str) -> float:
        actual = self.estimates[self.REFERENCE.get(model, "actual")]
        est = self.estimates[model]
        pairs = [
            (a, e) for a, e in zip(actual, est) if a == a and e == e  # drop NaN
        ]
        return metrics.mean(abs(e - a) / a * 100.0 for a, e in pairs)

    def format_table(self) -> str:
        rows = []
        for model in self.estimates:
            values = [v for v in self.estimates[model] if v == v]
            rows.append(
                [
                    model,
                    metrics.mean(values),
                    metrics.stdev(values),
                    0.0
                    if model.startswith("actual")
                    else self.mean_abs_deviation(model),
                ]
            )
        mode = "sampled" if self.sampled else "unsampled"
        return (
            f"Fig 6: alone miss service time estimates ({mode}), cycles\n"
            "(asm is compared against actual_union — the Table 1 union\n"
            " semantics it estimates; fst/ptca against the per-request mean)\n"
            + format_table(
                ["source", "mean", "stdev", "dev_from_reference%"], rows
            )
        )


def run(
    sampled: bool = False,
    num_mixes: int = 6,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 77,
) -> LatencyDistributionResult:
    config = config or scaled_config()
    # The paper uses its most memory-intensive workloads here.
    pool = [s for s in CATALOG.values() if intensity_class(s) != "low"]
    mixes = random_mixes(num_mixes, config.num_cores, seed=seed, pool=pool)
    recipe = sampled_models(config) if sampled else unsampled_models()
    factories = recipe["model_factories"]
    result = LatencyDistributionResult(sampled=sampled)
    result.estimates = {
        "actual": [],
        "actual_union": [],
        "asm": [],
        "fst": [],
        "ptca": [],
    }
    cycles = quanta * config.quantum_cycles

    for mix in mixes:
        system = System(config, mix.traces(), seed=mix.seed)
        models = {name: factory() for name, factory in factories.items()}
        for model in models.values():
            model.attach(system)
        for _ in range(quanta):
            system.run_quantum()
        for core in range(mix.num_cores):
            per_request, union_avg = _alone_miss_times(mix, core, config, cycles)
            result.estimates["actual"].append(per_request)
            result.estimates["actual_union"].append(union_avg)
            asm: AsmModel = models["asm"]
            asm_estimate = asm.last_quantum[core].alone_avg_miss_time
            result.estimates["asm"].append(
                asm_estimate if asm_estimate > 0 else float("nan")
            )
            fst: FstModel = models["fst"]
            ptca: PtcaModel = models["ptca"]
            # FST/PTCA per-request estimates start at the DRAM queue; add
            # the LLC lookup to align with the hierarchy-level measurement.
            result.estimates["fst"].append(
                fst.last_alone_miss_latency[core] + config.llc.latency
            )
            result.estimates["ptca"].append(
                ptca.last_alone_miss_latency[core] + config.llc.latency
            )
    return result
