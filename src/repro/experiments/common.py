"""Shared machinery for the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign
    from repro.telemetry.spec import TelemetrySpec
from repro.harness import metrics
from repro.harness.runner import RunResult
from repro.models.asm import AsmModel
from repro.models.fst import FstModel
from repro.models.mise import MiseModel
from repro.models.ptca import PtcaModel
from repro.workloads.mixes import WorkloadMix, random_mixes

# Pollution-filter size matching the overhead of a 16-set x 16-way sampled
# ATS (256 entries); the Bloom filter gets 4x counters, as in FST [15].
EQUAL_OVERHEAD_FILTER_COUNTERS = 1024


def unsampled_models() -> Dict[str, Any]:
    """Figure 2 configuration: exact/full structures for every model."""
    return {"model_factories": {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=None),
    }}


def sampled_models(config: SystemConfig) -> Dict[str, Any]:
    """Figure 3 configuration: sampled ATS and equal-size pollution filter."""
    sets = config.ats_sampled_sets
    return {"model_factories": {
        "fst": lambda: FstModel(filter_counters=EQUAL_OVERHEAD_FILTER_COUNTERS),
        "ptca": lambda: PtcaModel(sampled_sets=sets),
        "asm": lambda: AsmModel(sampled_sets=sets),
    }}


def headline_models(config: SystemConfig) -> Dict[str, Any]:
    """The paper's headline comparison: unsampled FST/PTCA (their best
    configuration) against sampled (practical) ASM."""
    return {"model_factories": {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets),
        "mise": lambda: MiseModel(),
    }}


@dataclass
class ErrorSurvey:
    """Per-application and overall slowdown-estimation errors."""

    model_names: List[str]
    # model -> app name -> list of per-quantum errors across all instances
    per_app: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    # model -> flat error list
    overall: Dict[str, List[float]] = field(default_factory=dict)
    # model -> per-workload mean errors (for stdev-across-workloads bars)
    per_workload: Dict[str, List[float]] = field(default_factory=dict)

    def add_run(self, result: RunResult) -> None:
        for model in self.model_names:
            per_core = result.errors_for(model)
            workload_errors: List[float] = []
            for core, errors in enumerate(per_core):
                app = result.mix.specs[core].name
                self.per_app.setdefault(model, {}).setdefault(app, []).extend(errors)
                self.overall.setdefault(model, []).extend(errors)
                workload_errors.extend(errors)
            if workload_errors:
                self.per_workload.setdefault(model, []).append(
                    metrics.mean(workload_errors)
                )

    def mean_error(self, model: str) -> float:
        errors = self.overall.get(model, [])
        return metrics.mean(errors) if errors else float("nan")

    def stdev_across_workloads(self, model: str) -> float:
        return metrics.stdev(self.per_workload.get(model, []))

    def app_means(self, model: str) -> Dict[str, float]:
        return {
            app: metrics.mean(errors)
            for app, errors in self.per_app.get(model, {}).items()
            if errors
        }


def survey_errors(
    mixes: Sequence[WorkloadMix],
    config: SystemConfig,
    quanta: int = 2,
    campaign: Optional["Campaign"] = None,
    variant: str = "",
    *,
    workers: int = 1,
    recipe: Callable[..., Dict[str, Any]],
    recipe_args: Sequence = (),
    telemetry: Optional["TelemetrySpec"] = None,
) -> ErrorSurvey:
    """Run every mix as one campaign cell and collect every model's
    estimation errors.

    Each mix becomes a :class:`~repro.parallel.CellSpec` whose models come
    from the module-level recipe ``recipe(*recipe_args)``, and the cells
    run through :func:`repro.parallel.run_cells` — serially,
    or across ``workers`` processes with identical results. Under a
    :class:`repro.resilience.campaign.Campaign`, previously completed mixes
    resume from its store, failing mixes are captured (and skipped when
    the campaign keeps going) instead of aborting the survey, and
    ``variant`` disambiguates multiple surveys within one experiment.
    Without one, the survey makes a campaign with no store, and a failing
    mix raises.

    ``telemetry`` injects deterministic counter faults into every model's
    counter bank (see :mod:`repro.telemetry`); ``None`` means perfect
    telemetry.

    ``config.engine`` is the survey's fidelity tier (see
    docs/fidelity.md). At the analytic tier the per-estimator machinery
    does not run — only the closed-form "asm"/"analytic" estimates exist,
    and other requested models simply collect no errors. An analytic
    survey under a campaign with a store additionally cross-validates a
    seeded sample of its cells against their event twins and persists the
    divergence report (:mod:`repro.analytic.crossval`).
    """
    (survey,) = survey_configs(
        mixes, [config], quanta, campaign, variant, workers=workers,
        recipe=recipe, recipe_args=recipe_args, telemetry=telemetry,
    )
    return survey


def survey_configs(
    mixes: Sequence[WorkloadMix],
    configs: Sequence[SystemConfig],
    quanta: int = 2,
    campaign: Optional["Campaign"] = None,
    variant: str = "",
    *,
    workers: int = 1,
    recipe: Callable[..., Dict[str, Any]],
    recipe_args: Sequence = (),
    telemetry: Optional["TelemetrySpec"] = None,
) -> List[ErrorSurvey]:
    """:func:`survey_errors` on each of ``configs``, in order, with every
    cell in one :meth:`~repro.resilience.campaign.Campaign.run_cells`
    batch, so configs whose alone legs share keys (those that differ only
    in epoch length) extend the legs instead of re-simulating them."""
    from repro.parallel import CellSpec
    from repro.resilience.campaign import Campaign

    model_names = list(recipe(*recipe_args).get("model_factories", ()))
    cells = [
        CellSpec(
            mix=mix,
            config=config,
            quanta=quanta,
            variant=variant,
            recipe=recipe,
            recipe_args=tuple(recipe_args),
            telemetry=telemetry,
        )
        for config in configs
        for mix in mixes
    ]
    camp = campaign if campaign is not None else Campaign("adhoc-survey")
    results = camp.run_cells(cells, workers=workers)
    surveys = []
    for k, config in enumerate(configs):
        group = slice(k * len(mixes), (k + 1) * len(mixes))
        survey = ErrorSurvey(model_names=list(model_names))
        for result in results[group]:
            if result is not None:
                survey.add_run(result)
        if config.engine == "analytic" and camp.store is not None:
            from repro.analytic.crossval import cross_validate

            cross_validate(camp, cells[group], results[group])
        surveys.append(survey)
    return surveys


def default_mixes(count: int, num_cores: int, seed: int = 42) -> List[WorkloadMix]:
    return random_mixes(count, num_cores, seed=seed)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.2f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def fairness_of_runs(results: Sequence[Optional[RunResult]]) -> Dict[str, float]:
    """Average unfairness (max slowdown) and harmonic speedup over runs.

    ``None`` entries (mixes a campaign captured as failures) are skipped;
    all-failed cells report NaN rather than aborting the sweep."""
    results = [r for r in results if r is not None]
    if not results:
        return {
            "max_slowdown": float("nan"),
            "harmonic_speedup": float("nan"),
        }
    return {
        "max_slowdown": metrics.mean(r.max_slowdown() for r in results),
        "harmonic_speedup": metrics.mean(r.harmonic_speedup() for r in results),
    }


@dataclass
class SchemeComparison:
    """Fairness and performance of resource-management schemes by core
    count (Figs. 9 and 10)."""

    title: str
    # (cores, scheme) -> {"max_slowdown": .., "harmonic_speedup": ..}
    outcomes: Dict[Tuple[int, str], Dict[str, float]] = field(default_factory=dict)

    def format_table(self) -> str:
        rows = [
            [cores, scheme, vals["max_slowdown"], vals["harmonic_speedup"]]
            for (cores, scheme), vals in sorted(self.outcomes.items())
        ]
        return self.title + "\n" + format_table(
            ["cores", "scheme", "max_slowdown", "harmonic_speedup"], rows
        )


def scheme_recipe(
    schemes: Callable[..., Dict[str, Dict[str, Any]]], name: str, *args: Any
) -> Dict[str, Any]:
    """The cell recipe of scheme ``name`` in the scheme table
    ``schemes(*args)``: a module-level function mapping each scheme's name
    to its ``run_workload`` keyword arguments."""
    return schemes(*args)[name]


def run_schemes(
    campaign: "Campaign",
    schemes: Callable[..., Dict[str, Dict[str, Any]]],
    mixes: Sequence[WorkloadMix],
    config: SystemConfig,
    quanta: int,
    workers: int = 1,
    *,
    args: Tuple[Any, ...] = (),
    prefix: str = "",
) -> Dict[str, List[Optional[RunResult]]]:
    """Run each mix under each scheme of ``schemes(config, *args)``, one
    cell of variant ``prefix + name`` per pair, as one
    :meth:`Campaign.run_cells` batch, so the schemes of a mix share its
    alone legs. Returns each scheme's results in mix order."""
    from repro.parallel import CellSpec

    names = list(schemes(config, *args))
    cells = [
        CellSpec(
            mix=mix,
            config=config,
            quanta=quanta,
            variant=prefix + name,
            recipe=scheme_recipe,
            recipe_args=(schemes, name, config) + args,
        )
        for name in names
        for mix in mixes
    ]
    results = iter(campaign.run_cells(cells, workers=workers))
    return {name: [next(results) for _ in mixes] for name in names}


def compare_schemes(
    title: str,
    configs: Sequence[SystemConfig],
    schemes: Callable[[SystemConfig], Dict[str, Dict[str, Any]]],
    mixes_per_count: Optional[Dict[int, int]],
    quanta: int,
    seed: int,
    campaign: "Campaign",
    workers: int = 1,
) -> SchemeComparison:
    """Run every scheme of the table ``schemes(config)`` on each config's
    mixes (:func:`run_schemes`).

    Each config's core count picks its mix count from ``mixes_per_count``
    (default 5/3/2 mixes at 4/8/16 cores, otherwise 3) and seeds its mixes
    with ``seed + cores``."""
    mixes_per_count = mixes_per_count or {4: 5, 8: 3, 16: 2}
    result = SchemeComparison(title)
    for cfg in configs:
        cores = cfg.num_cores
        mixes = default_mixes(mixes_per_count.get(cores, 3), cores, seed=seed + cores)
        runs = run_schemes(
            campaign, schemes, mixes, cfg, quanta, workers,
            prefix=f"{cores}cores-",
        )
        for scheme, results in runs.items():
            result.outcomes[(cores, scheme)] = fairness_of_runs(results)
    return result


__all__ = [
    "EQUAL_OVERHEAD_FILTER_COUNTERS",
    "unsampled_models",
    "sampled_models",
    "headline_models",
    "ErrorSurvey",
    "survey_errors",
    "survey_configs",
    "default_mixes",
    "format_table",
    "fairness_of_runs",
    "SchemeComparison",
    "compare_schemes",
    "run_schemes",
    "scheme_recipe",
    "scaled_config",
]
