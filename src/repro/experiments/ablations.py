"""Ablations of ASM's design choices (beyond the paper's own tables).

* **Epoch assignment** — Section 4.2 notes round-robin assignment "could
  also achieve similar effects"; the probabilistic policy is kept to enable
  ASM-Mem. Verified here.
* **ATS sampling degree** — Section 4.4/4.5 claims sampling barely hurts
  ASM; swept here from 4 sampled sets to the full tag store.
* **Queueing-delay correction** — Section 4.3's correction for residual
  memory interference during epochs; switched off here to measure its
  contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import default_mixes, format_table, run_schemes
from repro.harness import metrics
from repro.models.asm import AsmModel


@dataclass
class AblationResult:
    errors: Dict[str, float] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = [[variant, err] for variant, err in self.errors.items()]
        return "Ablations: ASM mean error (%) per variant\n" + format_table(
            ["variant", "mean_err%"], rows
        )


def _variants(
    config: SystemConfig, sampling_sweep: Sequence[Optional[int]]
) -> Dict[str, Dict[str, Any]]:
    variants: Dict[str, Dict[str, Any]] = {}
    for sets in sampling_sweep:
        label = f"ats-sampled-{sets}" if sets else "ats-full"
        variants[label] = dict(
            model_factories={"asm": lambda s=sets: AsmModel(sampled_sets=s)}
        )
    variants["round-robin-epochs"] = dict(
        model_factories={
            "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets)
        },
        epoch_assignment="round_robin",
    )
    variants["no-queueing-correction"] = dict(
        model_factories={"asm": lambda: AsmModel(
            sampled_sets=config.ats_sampled_sets, queueing_correction=False
        )},
    )
    return variants


def run(
    num_mixes: int = 6,
    quanta: int = 2,
    sampling_sweep: Sequence[Optional[int]] = (4, 16, 64, None),
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> AblationResult:
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    runs = run_schemes(
        # Without a campaign: one with no store, so a failing run raises.
        campaign if campaign is not None else Campaign("ablations"),
        _variants, mixes, config, quanta, workers,
        args=(tuple(sampling_sweep),),
    )
    result = AblationResult()
    for label, results in runs.items():
        done = [res for res in results if res is not None]
        errors = [e for res in done for core in res.errors_for("asm") for e in core]
        result.errors[label] = metrics.mean(errors) if errors else float("nan")
    return result
