"""Section 6 (text): slowdown-estimation accuracy on database workloads.

The paper evaluates TPC-C and YCSB, reporting FST (unsampled) 27%,
PTCA (unsampled) 12% and ASM (sampled) 4% average error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import ErrorSurvey, format_table, survey_errors
from repro.models.asm import AsmModel
from repro.models.fst import FstModel
from repro.models.ptca import PtcaModel
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import random_mixes


@dataclass
class DbWorkloadsResult:
    survey: ErrorSurvey

    def format_table(self) -> str:
        rows = [
            [model, self.survey.mean_error(model)]
            for model in self.survey.model_names
        ]
        return "Database workloads (TPC-C / YCSB): error (%)\n" + format_table(
            ["model", "mean_err%"], rows
        )


def db_models(config: SystemConfig):
    """Unsampled FST/PTCA vs sampled ASM (module-level: picklable)."""
    return {"model_factories": {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets),
    }}


def run(
    num_mixes: int = 6,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 99,
    campaign=None,
    workers: int = 1,
) -> DbWorkloadsResult:
    config = config or scaled_config()
    pool = [s for s in CATALOG.values() if s.suite == "db"]
    mixes = random_mixes(num_mixes, config.num_cores, seed=seed, pool=pool)
    survey = survey_errors(
        mixes,
        config,
        quanta=quanta,
        campaign=campaign,
        workers=workers,
        recipe=db_models,
        recipe_args=(config,),
    )
    return DbWorkloadsResult(survey=survey)
