"""Figure 11: soft slowdown guarantees with ASM-QoS.

One application of interest (h264ref in the paper) runs with three
co-runners. Naive-QoS gives it the entire cache — minimal slowdown for it,
large slowdowns for everyone else. ASM-QoS-X allocates just enough ways to
keep its estimated slowdown within the bound X, freeing the remaining
capacity for the co-runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import format_table, run_schemes
from repro.harness import metrics
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


def _schemes(
    config: SystemConfig, bounds: Sequence[float]
) -> Dict[str, Dict[str, Any]]:
    sampled = config.ats_sampled_sets
    schemes = {
        "naive-qos": dict(
            policy_factories=[lambda models: NaiveQosPolicy(TARGET_CORE)],
        ),
    }
    for bound in bounds:
        schemes[f"asm-qos-{bound}"] = dict(
            model_factories={"asm": lambda: AsmModel(sampled_sets=sampled)},
            policy_factories=[
                lambda models, b=bound: AsmQosPolicy(models["asm"], TARGET_CORE, b)
            ],
        )
    return schemes


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    bounds: Sequence[float] = (1.5, 2.0, 2.5, 3.0),
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 3,
    campaign=None,
    workers: int = 1,
) -> QosResult:
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    mix = make_mix(list(apps), seed=seed)
    result = QosResult(apps=apps)
    runs = run_schemes(
        # Without a campaign: one with no store, so a failing run raises.
        campaign if campaign is not None else Campaign("fig11"),
        _schemes, [mix], config, quanta, workers, args=(tuple(bounds),),
    )
    for scheme, [res] in runs.items():
        if res is not None:
            result.slowdowns[scheme] = res.mean_actual_slowdowns()
    return result
