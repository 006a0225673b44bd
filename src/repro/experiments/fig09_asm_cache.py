"""Figure 9: ASM-Cache versus NoPart / UCP / MCFQ.

Fairness (maximum slowdown, lower is better) and system performance
(harmonic speedup, higher is better) across core counts. The paper's
shape: ASM-Cache achieves the best fairness with comparable-or-better
performance, and its advantage grows with core count; MCFQ can degrade on
memory-intensive workloads because it ignores bandwidth interference.

Granularity note: when the core count equals the cache associativity
(16 cores on the 16-way LLC), every way-partitioner is forced to one way
per application and the schemes tie. A larger LLC does not lift this
floor: ``config.with_llc_size`` adds sets and keeps the ways, so each of
16 applications still gets one way (ROADMAP item 5 sets size and ways
together).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import SchemeComparison, compare_schemes
from repro.models.asm import AsmModel
from repro.policies.asm_cache import AsmCachePolicy
from repro.policies.mcfq import McfqPolicy
from repro.policies.ucp import UcpPolicy


def _schemes(config: SystemConfig) -> Dict[str, dict]:
    sampled = config.ats_sampled_sets
    return {
        "nopart": dict(),
        "ucp": dict(policy_factories=[lambda models: UcpPolicy()]),
        "mcfq": dict(policy_factories=[lambda models: McfqPolicy()]),
        "asm-cache": dict(
            model_factories={"asm": lambda: AsmModel(sampled_sets=sampled)},
            policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
        ),
    }


def run(
    core_counts: Sequence[int] = (4, 8, 16),
    mixes_per_count: Optional[Dict[int, int]] = None,
    quanta: int = 3,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    llc_bytes_per_core: int = 0,
    campaign=None,
    workers: int = 1,
) -> SchemeComparison:
    """``llc_bytes_per_core`` > 0 scales the LLC's capacity with the core
    count (the paper's larger-cache 16-core study, Section 7.1.2 fourth
    observation). It keeps the associativity, so at 16 cores on a 16-way
    LLC each partitioner still gives every application one way; see the
    granularity note above."""
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    configs = [config.with_cores(cores) for cores in core_counts]
    if llc_bytes_per_core:
        configs = [
            cfg.with_llc_size(llc_bytes_per_core * cfg.num_cores)
            for cfg in configs
        ]
    return compare_schemes(
        "Fig 9: slowdown-aware cache partitioning",
        configs,
        _schemes,
        mixes_per_count,
        quanta,
        seed,
        # Without a campaign: one with no store, so a failing run raises.
        campaign if campaign is not None else Campaign("fig09"),
        workers,
    )
