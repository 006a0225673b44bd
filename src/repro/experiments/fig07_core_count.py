"""Figure 7: slowdown-estimation error versus core count (4 / 8 / 16).

The paper's findings: ASM (sampled) stays the most accurate at every core
count with the lowest spread; all models degrade as interference grows;
ASM's advantage over FST/PTCA (unsampled) widens with core count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    ErrorSurvey,
    default_mixes,
    format_table,
    headline_models,
    survey_errors,
)


@dataclass
class CoreCountResult:
    surveys: Dict[int, ErrorSurvey] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = []
        for cores, survey in sorted(self.surveys.items()):
            for model in survey.model_names:
                if model == "mise":
                    continue
                rows.append(
                    [
                        cores,
                        model,
                        survey.mean_error(model),
                        survey.stdev_across_workloads(model),
                    ]
                )
        return "Fig 7: error (%) vs core count\n" + format_table(
            ["cores", "model", "mean_err%", "stdev_across_workloads"], rows
        )


def run(
    core_counts: Sequence[int] = (4, 8, 16),
    mixes_per_count: Optional[Dict[int, int]] = None,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> CoreCountResult:
    config = config or scaled_config()
    mixes_per_count = mixes_per_count or {4: 8, 8: 5, 16: 3}
    result = CoreCountResult()
    for cores in core_counts:
        cfg = config.with_cores(cores)
        mixes = default_mixes(mixes_per_count.get(cores, 4), cores, seed=seed + cores)
        result.surveys[cores] = survey_errors(
            mixes,
            cfg,
            quanta=quanta,
            campaign=campaign,
            variant=f"{cores}cores",
            workers=workers,
            recipe=headline_models,
            recipe_args=(cfg,),
        )
    return result
