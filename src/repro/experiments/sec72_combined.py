"""Section 7.2 (text): ASM-Cache-Mem versus the best prior combination.

The paper combines coordinated slowdown-aware cache + bandwidth
partitioning and compares against PARBS+UCP (the best previous combination
it found), reporting ~14.6% better fairness at comparable performance on a
16-core 1-channel system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    default_mixes,
    fairness_of_runs,
    format_table,
    run_schemes,
)
from repro.mem.schedulers import ParbsScheduler
from repro.models.asm import AsmModel
from repro.policies.combined import AsmCacheMemPolicy
from repro.policies.ucp import UcpPolicy


@dataclass
class CombinedResult:
    outcomes: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = [
            [scheme, vals["max_slowdown"], vals["harmonic_speedup"]]
            for scheme, vals in self.outcomes.items()
        ]
        return (
            "Sec 7.2: coordinated cache+bandwidth partitioning\n"
            + format_table(["scheme", "max_slowdown", "harmonic_speedup"], rows)
        )


def _schemes(config: SystemConfig) -> Dict[str, Dict[str, Any]]:
    sampled = config.ats_sampled_sets
    return {
        "frfcfs+nopart": dict(),
        "parbs+ucp": dict(
            scheduler_factory=ParbsScheduler,
            policy_factories=[lambda models: UcpPolicy()],
        ),
        "asm-cache-mem": dict(
            model_factories={"asm": lambda: AsmModel(sampled_sets=sampled)},
            policy_factories=[lambda models: AsmCacheMemPolicy(models["asm"])],
        ),
    }


def run(
    num_cores: int = 8,
    num_mixes: int = 3,
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> CombinedResult:
    from repro.resilience.campaign import Campaign

    config = (config or scaled_config()).with_cores(num_cores)
    mixes = default_mixes(num_mixes, num_cores, seed=seed)
    runs = run_schemes(
        # Without a campaign: one with no store, so a failing run raises.
        campaign if campaign is not None else Campaign("sec72"),
        _schemes, mixes, config, quanta, workers,
    )
    result = CombinedResult()
    for scheme, results in runs.items():
        result.outcomes[scheme] = fairness_of_runs(results)
    return result
