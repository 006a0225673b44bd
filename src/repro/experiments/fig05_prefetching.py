"""Figure 5: slowdown-estimation error with a stride prefetcher.

With a degree-4, distance-24 stride prefetcher enabled on every core, the
paper reports ASM's error *improving* to 7.5% (prefetching removes stalls,
leaving less interference to mis-estimate) while FST/PTCA degrade slightly
(prefetches disrupt the per-request overlap they try to track).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    ErrorSurvey,
    default_mixes,
    format_table,
    headline_models,
    survey_errors,
)


@dataclass
class PrefetchingResult:
    with_prefetch: ErrorSurvey
    without_prefetch: ErrorSurvey

    def format_table(self) -> str:
        models = [m for m in self.with_prefetch.model_names if m != "mise"]
        rows = []
        for model in models:
            rows.append(
                [
                    model,
                    self.without_prefetch.mean_error(model),
                    self.with_prefetch.mean_error(model),
                    self.with_prefetch.stdev_across_workloads(model),
                ]
            )
        return "Fig 5: error (%) with stride prefetching\n" + format_table(
            ["model", "no_prefetch", "prefetch", "stdev_across_workloads"], rows
        )


def run(
    num_mixes: int = 8,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> PrefetchingResult:
    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    base = survey_errors(
        mixes,
        config,
        quanta=quanta,
        campaign=campaign,
        variant="base",
        workers=workers,
        recipe=headline_models,
        recipe_args=(config,),
    )
    prefetch_config = config.with_prefetcher(True)
    pref = survey_errors(
        mixes,
        prefetch_config,
        quanta=quanta,
        campaign=campaign,
        variant="prefetch",
        workers=workers,
        recipe=headline_models,
        recipe_args=(prefetch_config,),
    )
    return PrefetchingResult(with_prefetch=pref, without_prefetch=base)
