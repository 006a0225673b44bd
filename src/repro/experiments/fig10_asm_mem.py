"""Figure 10: ASM-Mem versus FR-FCFS / PARBS / TCM memory scheduling.

Fairness (maximum slowdown) and performance (harmonic speedup) across core
counts. The paper's shape: ASM-Mem is the fairest with comparable or
better performance, with gains growing at higher core counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import default_mixes, fairness_of_runs, format_table
from repro.mem.schedulers import BlissScheduler, ParbsScheduler, TcmScheduler
from repro.models.asm import AsmModel
from repro.policies.asm_mem import AsmMemPolicy


def _schemes(config: SystemConfig) -> Dict[str, dict]:
    cores = config.num_cores
    sampled = config.ats_sampled_sets
    return {
        "frfcfs": dict(),
        "parbs": dict(scheduler_factory=ParbsScheduler),
        "tcm": dict(scheduler_factory=lambda: TcmScheduler(cores)),
        # BLISS [65] is cited by the paper as a low-cost alternative; added
        # beyond the paper's Figure 10 line-up for completeness.
        "bliss": dict(scheduler_factory=lambda: BlissScheduler(cores)),
        "asm-mem": dict(
            model_factories={"asm": lambda: AsmModel(sampled_sets=sampled)},
            policy_factories=[lambda models: AsmMemPolicy(models["asm"])],
        ),
    }


@dataclass
class BandwidthPartitioningResult:
    outcomes: Dict[tuple, Dict[str, float]] = field(default_factory=dict)
    title: str = "Fig 10: slowdown-aware memory bandwidth partitioning"

    def format_table(self) -> str:
        rows = [
            [cores, scheme, vals["max_slowdown"], vals["harmonic_speedup"]]
            for (cores, scheme), vals in sorted(self.outcomes.items())
        ]
        return self.title + "\n" + format_table(
            ["cores", "scheme", "max_slowdown", "harmonic_speedup"], rows
        )


def run(
    core_counts: Sequence[int] = (4, 8, 16),
    mixes_per_count: Optional[Dict[int, int]] = None,
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
) -> BandwidthPartitioningResult:
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    # Without a campaign: one with no store, so a failing run raises.
    campaign = campaign if campaign is not None else Campaign("fig10")
    mixes_per_count = mixes_per_count or {4: 5, 8: 3, 16: 2}
    result = BandwidthPartitioningResult()
    for cores in core_counts:
        cfg = config.with_cores(cores)
        mixes = default_mixes(mixes_per_count.get(cores, 3), cores, seed=seed + cores)
        for scheme, kwargs in _schemes(cfg).items():
            runs = [
                campaign.run_mix(
                    mix,
                    cfg,
                    quanta=quanta,
                    variant=f"{cores}cores-{scheme}",
                    **kwargs,
                )
                for mix in mixes
            ]
            result.outcomes[(cores, scheme)] = fairness_of_runs(runs)
    return result
