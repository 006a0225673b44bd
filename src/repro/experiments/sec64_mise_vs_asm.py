"""Section 6.4: benefit of modelling shared-cache interference.

MISE and ASM share the epoch-based aggregation machinery; the only
difference is that ASM also accounts for shared-cache capacity
interference. The paper reports MISE at 22% average error versus ASM's
9.9%; the gap is concentrated on cache-sensitive applications, so this
driver reports the overall means *and* the cache-sensitive breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    ErrorSurvey,
    default_mixes,
    format_table,
    survey_errors,
)
from repro.harness import metrics
from repro.models.asm import AsmModel
from repro.models.mise import MiseModel
from repro.workloads.catalog import CATALOG

# Applications whose hot set is a substantial fraction of the LLC: extra
# ways convert directly into hits, so cache interference drives their
# slowdown (reuse_depth >= ~1/4 of the 4096-line scaled LLC).
CACHE_SENSITIVE_DEPTH = 1000


def _is_cache_sensitive(app: str) -> bool:
    spec = CATALOG.get(app)
    return spec is not None and spec.reuse_depth >= CACHE_SENSITIVE_DEPTH


@dataclass
class MiseVsAsmResult:
    survey: ErrorSurvey

    def class_mean(self, model: str, sensitive: bool) -> float:
        errors: List[float] = []
        for app, app_errors in self.survey.per_app.get(model, {}).items():
            if _is_cache_sensitive(app) == sensitive:
                errors.extend(app_errors)
        return metrics.mean(errors) if errors else float("nan")

    def format_table(self) -> str:
        rows = []
        for model in self.survey.model_names:
            rows.append(
                [
                    model,
                    self.survey.mean_error(model),
                    self.class_mean(model, sensitive=True),
                    self.class_mean(model, sensitive=False),
                ]
            )
        return (
            "Sec 6.4: MISE vs ASM error (%): cache interference matters\n"
            + format_table(
                ["model", "overall", "cache_sensitive_apps", "other_apps"], rows
            )
        )


def mise_vs_asm_models(config: SystemConfig):
    """MISE against sampled ASM (module-level: picklable for workers)."""
    return {"model_factories": {
        "mise": lambda: MiseModel(),
        "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets),
    }}


def run(
    num_mixes: int = 10,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> MiseVsAsmResult:
    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    survey = survey_errors(
        mixes,
        config,
        quanta=quanta,
        campaign=campaign,
        workers=workers,
        recipe=mise_vs_asm_models,
        recipe_args=(config,),
    )
    return MiseVsAsmResult(survey=survey)
