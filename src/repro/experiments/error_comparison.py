"""Figures 2 and 3: per-benchmark slowdown-estimation error for FST, PTCA
and ASM, without (Fig 2) and with (Fig 3) auxiliary-tag-store sampling /
reduced pollution filters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analytic.runner import resolve_fidelity
from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    ErrorSurvey,
    default_mixes,
    format_table,
    sampled_models,
    survey_errors,
    unsampled_models,
)
from repro.workloads.catalog import CATALOG


@dataclass
class ErrorComparisonResult:
    survey: ErrorSurvey
    sampled: bool

    def format_table(self) -> str:
        models = self.survey.model_names
        # Per-benchmark rows, sorted the way the paper plots them: by suite
        # then by increasing memory intensity.
        order = sorted(
            CATALOG.values(), key=lambda s: (s.suite, s.apki)
        )
        rows: List[List[object]] = []
        app_means = {m: self.survey.app_means(m) for m in models}
        for spec in order:
            if not any(spec.name in app_means[m] for m in models):
                continue
            rows.append(
                [f"{spec.suite}:{spec.name}"]
                + [app_means[m].get(spec.name, float("nan")) for m in models]
            )
        rows.append(["== average =="] + [self.survey.mean_error(m) for m in models])
        title = (
            "Fig 3: error (%) with sampled ATS / small pollution filter"
            if self.sampled
            else "Fig 2: error (%) with unsampled (full) structures"
        )
        return title + "\n" + format_table(
            ["benchmark"] + [m + "_err%" for m in models], rows
        )


def run(
    sampled: bool,
    num_mixes: int = 10,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
    telemetry=None,
    fidelity: str = "",
) -> ErrorComparisonResult:
    config = resolve_fidelity(config or scaled_config(), fidelity)
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    variant = "sampled" if sampled else "unsampled"
    if telemetry is not None:
        variant += f"+{telemetry.fault_class}@{telemetry.rate:g}"
    survey = survey_errors(
        mixes,
        config,
        quanta=quanta,
        campaign=campaign,
        variant=variant,
        workers=workers,
        model_builder=sampled_models if sampled else unsampled_models,
        model_builder_args=(config,) if sampled else (),
        telemetry=telemetry,
    )
    return ErrorComparisonResult(survey=survey, sampled=sampled)
