"""Figure 10: ASM-Mem versus FR-FCFS / PARBS / TCM memory scheduling.

Fairness (maximum slowdown) and performance (harmonic speedup) across core
counts. The paper's shape: ASM-Mem is the fairest with comparable or
better performance, with gains growing at higher core counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import SchemeComparison, compare_schemes
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


def run(
    core_counts: Sequence[int] = (4, 8, 16),
    mixes_per_count: Optional[Dict[int, int]] = None,
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> SchemeComparison:
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    return compare_schemes(
        "Fig 10: slowdown-aware memory bandwidth partitioning",
        [config.with_cores(cores) for cores in core_counts],
        _schemes,
        mixes_per_count,
        quanta,
        seed,
        # Without a campaign: one with no store, so a failing run raises.
        campaign if campaign is not None else Campaign("fig10"),
        workers,
    )
