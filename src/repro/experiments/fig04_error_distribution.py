"""Figure 4: distribution of slowdown-estimation error.

The paper reports, across all application instances in the 4-core
workloads: the fraction of estimates in each error band, that 95.25% of
ASM's estimates err below 20%, and the maximum error per model
(ASM 36%, PTCA 87%, FST 133%). Configuration: FST/PTCA unsampled,
ASM sampled — the same as the headline accuracy claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    ErrorSurvey,
    default_mixes,
    format_table,
    headline_models,
    survey_errors,
)
from repro.harness import metrics

BIN_EDGES = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
BIN_LABELS = ["0-10%", "10-20%", "20-30%", "30-40%", "40-50%", ">50%"]


@dataclass
class ErrorDistributionResult:
    survey: ErrorSurvey

    def histogram(self, model: str) -> List[float]:
        return metrics.error_histogram(self.survey.overall[model], BIN_EDGES)

    def within(self, model: str, bound: float) -> float:
        errors = self.survey.overall[model]
        return sum(1 for e in errors if e < bound) / len(errors)

    def max_error(self, model: str) -> float:
        return max(self.survey.overall[model])

    def format_table(self) -> str:
        models = [m for m in self.survey.model_names if m != "mise"]
        rows = []
        for i, label in enumerate(BIN_LABELS):
            rows.append([label] + [self.histogram(m)[i] for m in models])
        rows.append(["<20% share"] + [self.within(m, 20.0) for m in models])
        rows.append(["max error%"] + [self.max_error(m) for m in models])
        return "Fig 4: error distribution (fractions per band)\n" + format_table(
            ["band"] + models, rows
        )


def run(
    num_mixes: int = 10,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> ErrorDistributionResult:
    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    survey = survey_errors(
        mixes,
        config,
        quanta=quanta,
        campaign=campaign,
        workers=workers,
        model_builder=headline_models,
        model_builder_args=(config,),
    )
    return ErrorDistributionResult(survey=survey)
