"""Shared machinery for the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign
    from repro.telemetry.spec import TelemetrySpec
from repro.harness import metrics
from repro.harness.runner import ModelFactory, RunResult
from repro.models.asm import AsmModel
from repro.models.fst import FstModel
from repro.models.mise import MiseModel
from repro.models.ptca import PtcaModel
from repro.workloads.mixes import WorkloadMix, random_mixes

# Pollution-filter size matching the overhead of a 16-set x 16-way sampled
# ATS (256 entries); the Bloom filter gets 4x counters, as in FST [15].
EQUAL_OVERHEAD_FILTER_COUNTERS = 1024


def unsampled_models() -> Dict[str, ModelFactory]:
    """Figure 2 configuration: exact/full structures for every model."""
    return {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=None),
    }


def sampled_models(config: SystemConfig) -> Dict[str, ModelFactory]:
    """Figure 3 configuration: sampled ATS and equal-size pollution filter."""
    sets = config.ats_sampled_sets
    return {
        "fst": lambda: FstModel(filter_counters=EQUAL_OVERHEAD_FILTER_COUNTERS),
        "ptca": lambda: PtcaModel(sampled_sets=sets),
        "asm": lambda: AsmModel(sampled_sets=sets),
    }


def headline_models(config: SystemConfig) -> Dict[str, ModelFactory]:
    """The paper's headline comparison: unsampled FST/PTCA (their best
    configuration) against sampled (practical) ASM."""
    return {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets),
        "mise": lambda: MiseModel(),
    }


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
    model_builder: Callable[..., Dict[str, ModelFactory]],
    model_builder_args: Sequence = (),
    telemetry: Optional["TelemetrySpec"] = None,
) -> ErrorSurvey:
    """Run every mix as one campaign cell and collect every model's
    estimation errors.

    Each mix becomes a :class:`~repro.parallel.CellSpec` whose models come
    from the module-level recipe ``model_builder(*model_builder_args)``,
    and the cells run through :func:`repro.parallel.run_cells` — serially,
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
    from repro.parallel import CellSpec
    from repro.resilience.campaign import Campaign

    survey = ErrorSurvey(model_names=list(model_builder(*model_builder_args)))
    cells = [
        CellSpec(
            mix=mix,
            config=config,
            quanta=quanta,
            variant=variant,
            model_builder=model_builder,
            model_builder_args=tuple(model_builder_args),
            telemetry=telemetry,
        )
        for mix in mixes
    ]
    camp = campaign if campaign is not None else Campaign("adhoc-survey")
    results = camp.run_cells(cells, workers=workers)
    for result in results:
        if result is not None:
            survey.add_run(result)
    if config.engine == "analytic" and camp.store is not None:
        from repro.analytic.crossval import cross_validate

        cross_validate(camp, cells, results)
    return survey


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


def compare_schemes(
    title: str,
    configs: Sequence[SystemConfig],
    schemes: Callable[[SystemConfig], Dict[str, dict]],
    mixes_per_count: Optional[Dict[int, int]],
    quanta: int,
    seed: int,
    campaign: "Campaign",
) -> SchemeComparison:
    """Run every scheme of ``schemes(config)`` on each config's mixes.

    Each config's core count picks its mix count from ``mixes_per_count``
    (default 5/3/2 mixes at 4/8/16 cores, otherwise 3) and seeds its mixes
    with ``seed + cores``; every run is one campaign cell."""
    mixes_per_count = mixes_per_count or {4: 5, 8: 3, 16: 2}
    result = SchemeComparison(title)
    for cfg in configs:
        cores = cfg.num_cores
        mixes = default_mixes(mixes_per_count.get(cores, 3), cores, seed=seed + cores)
        for scheme, kwargs in schemes(cfg).items():
            runs = [
                campaign.run_mix(
                    mix,
                    cfg,
                    quanta=quanta,
                    variant=f"{cores}cores-{scheme}",
                    **kwargs,
                )
                for mix in mixes
            ]
            result.outcomes[(cores, scheme)] = fairness_of_runs(runs)
    return result


__all__ = [
    "EQUAL_OVERHEAD_FILTER_COUNTERS",
    "unsampled_models",
    "sampled_models",
    "headline_models",
    "ErrorSurvey",
    "survey_errors",
    "default_mixes",
    "format_table",
    "fairness_of_runs",
    "SchemeComparison",
    "compare_schemes",
    "scaled_config",
]
