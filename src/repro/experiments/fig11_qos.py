"""Figure 11: soft slowdown guarantees with ASM-QoS.

One application of interest (h264ref in the paper) runs with three
co-runners. Naive-QoS gives it the entire cache — minimal slowdown for it,
large slowdowns for everyone else. ASM-QoS-X allocates just enough ways to
keep its estimated slowdown within the bound X, freeing the remaining
capacity for the co-runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import format_table
from repro.harness import metrics
from repro.harness.runner import AloneRunCache, run_workload
from repro.models.asm import AsmModel
from repro.policies.qos import AsmQosPolicy, NaiveQosPolicy
from repro.workloads.mixes import make_mix

DEFAULT_APPS = ("h264ref", "mcf", "soplex", "sphinx3")
TARGET_CORE = 0


@dataclass
class QosResult:
    # scheme -> per-app mean slowdowns
    slowdowns: Dict[str, List[float]] = field(default_factory=dict)
    apps: Sequence[str] = ()
    bounds: Sequence[float] = ()

    def format_table(self) -> str:
        rows = []
        for scheme, values in self.slowdowns.items():
            rows.append(
                [scheme]
                + list(values)
                + [metrics.harmonic_speedup(values)]
            )
        return "Fig 11: ASM-QoS slowdowns (target app first)\n" + format_table(
            ["scheme"] + list(self.apps) + ["harmonic_speedup"], rows
        )


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    bounds: Sequence[float] = (1.5, 2.0, 2.5, 3.0),
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 3,
) -> QosResult:
    config = config or scaled_config()
    mix = make_mix(list(apps), seed=seed)
    cache = AloneRunCache()
    result = QosResult(apps=apps, bounds=bounds)

    naive = run_workload(
        mix,
        config,
        quanta=quanta,
        alone_cache=cache,
        policy_factories=[lambda models: NaiveQosPolicy(TARGET_CORE)],
    )
    result.slowdowns["naive-qos"] = naive.mean_actual_slowdowns()

    sampled = config.ats_sampled_sets
    for bound in bounds:
        res = run_workload(
            mix,
            config,
            quanta=quanta,
            alone_cache=cache,
            model_factories={"asm": lambda: AsmModel(sampled_sets=sampled)},
            policy_factories=[
                lambda models, b=bound: AsmQosPolicy(models["asm"], TARGET_CORE, b)
            ],
        )
        result.slowdowns[f"asm-qos-{bound}"] = res.mean_actual_slowdowns()
    return result
