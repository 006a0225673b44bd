"""Table 3: ASM error sensitivity to quantum (Q) and epoch (E) lengths.

Paper findings (at paper scale, Q in 1M..10M, E in 1K..100K): error falls
with larger Q, is best at moderate E (10K), and is worst at the shortest E
(1K — epochs too short to emulate alone-run memory behaviour) and degrades
again at very large E (too few epochs per application).

The scaled platform sweeps the same Q/E *ratios* at 1/5 the paper's
absolute quantum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    default_mixes,
    format_table,
    survey_configs,
)
from repro.models.asm import AsmModel


@dataclass
class QuantumEpochResult:
    errors: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def format_table(self) -> str:
        quanta = sorted({q for q, _ in self.errors})
        epochs = sorted({e for _, e in self.errors})
        rows = []
        for q in quanta:
            rows.append(
                [f"Q={q}"]
                + [self.errors.get((q, e), float("nan")) for e in epochs]
            )
        return "Table 3: ASM error (%) vs quantum and epoch lengths\n" + format_table(
            ["quantum\\epoch"] + [f"E={e}" for e in epochs], rows
        )


def asm_models(config: SystemConfig) -> Dict[str, Any]:
    """Table 3's one estimator: ASM with the config's sampled ATS."""
    sets = config.ats_sampled_sets
    return {"model_factories": {"asm": lambda: AsmModel(sampled_sets=sets)}}


def run(
    quantum_lengths: Sequence[int] = (200_000, 1_000_000, 2_000_000),
    epoch_lengths: Sequence[int] = (1_000, 5_000, 20_000, 50_000),
    num_mixes: int = 5,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> QuantumEpochResult:
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    result = QuantumEpochResult()
    budget = max(quantum_lengths)  # equal simulated time per cell
    # One campaign across all cells. Within a quantum-length row the
    # simulated horizon is identical and an alone leg's key holds no epoch
    # length, so each row is one batch of cells whose columns extend the
    # same alone legs. Without a campaign: one with no store, so a failing
    # run raises.
    campaign = campaign if campaign is not None else Campaign("table3")
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    for quantum in quantum_lengths:
        epochs = [epoch for epoch in epoch_lengths if not quantum % epoch]
        surveys = survey_configs(
            mixes,
            [config.with_quantum(quantum, epoch) for epoch in epochs],
            quanta=max(1, budget // quantum),
            campaign=campaign,
            workers=workers,
            recipe=asm_models,
            recipe_args=(config,),
        )
        for epoch, survey in zip(epochs, surveys):
            result.errors[(quantum, epoch)] = survey.mean_error("asm")
    return result
