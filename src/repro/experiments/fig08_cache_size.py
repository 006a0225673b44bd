"""Figure 8: slowdown-estimation error versus shared cache capacity.

The paper sweeps the LLC from 1MB to 4MB on the 4-core system; on the
8x-scaled platform that is 128KB to 512KB. ASM should remain the most
accurate across all capacities.
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
class CacheSizeResult:
    surveys: Dict[int, ErrorSurvey] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = []
        for size, survey in sorted(self.surveys.items()):
            for model in survey.model_names:
                if model == "mise":
                    continue
                rows.append(
                    [f"{size // 1024}KB", model, survey.mean_error(model)]
                )
        return "Fig 8: error (%) vs shared cache capacity\n" + format_table(
            ["llc_size", "model", "mean_err%"], rows
        )


def run(
    sizes: Sequence[int] = (128 * 1024, 256 * 1024, 512 * 1024),
    num_mixes: int = 6,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> CacheSizeResult:
    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    result = CacheSizeResult()
    for size in sizes:
        cfg = config.with_llc_size(size)
        result.surveys[size] = survey_errors(
            mixes,
            cfg,
            quanta=quanta,
            campaign=campaign,
            variant=f"llc{size // 1024}k",
            workers=workers,
            recipe=headline_models,
            recipe_args=(cfg,),
        )
    return result
