"""Tier cross-validation: analytic estimates vs the event oracle.

Every campaign that runs analytic cells should know how far the
surrogate is from the simulator *on its own cells*. ``cross_validate``
takes an analytic survey's cells and results, draws a seeded sample of
them, and runs each sampled cell's *event twin* — the same
:class:`~repro.parallel.CellSpec` (models, telemetry, variant) with
``config.engine == "event"`` — through
:meth:`~repro.resilience.campaign.Campaign.run_cells`. The surrogate is
never re-run, and the oracle record is exactly the one an event-tier run
of that cell stores, so it resumes and dedupes like one. The per-core
slowdown deltas are summarised as a :class:`DivergenceReport` persisted
to ``divergence.jsonl`` in the campaign store — next to
``metrics.jsonl``, readable with
:meth:`~repro.resilience.campaign.CampaignStore.load_divergence`.

The report is deliberately timestamp-free: equal seeds produce
byte-equal ``divergence.jsonl`` files (asserted by
``tests/test_analytic.py``), the same durability contract every other
store file honours.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.harness.metrics import mean
from repro.harness.runner import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel import CellSpec
    from repro.resilience.campaign import Campaign

#: Documented acceptance bound: mean |slowdown error| of the analytic
#: tier vs the event oracle, percent, on the cross-validated sample.
#: Typical observed error on the default synthetic suite is well below
#: this; see docs/fidelity.md for the regimes that push toward it.
ASM_DIVERGENCE_TOLERANCE_PCT = 40.0


@dataclass(frozen=True)
class DivergenceEntry:
    """One (cell, core, model) slowdown comparison against the oracle."""

    mix: str
    core: int
    app: str
    model: str
    fidelity: str
    oracle: float
    estimate: float

    @property
    def delta(self) -> float:
        """Signed slowdown difference, estimate minus oracle."""
        return self.estimate - self.oracle

    @property
    def abs_pct(self) -> float:
        """Absolute slowdown error as a percentage of the oracle."""
        if self.oracle == 0:
            return float("nan")
        return abs(self.delta) / abs(self.oracle) * 100.0

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe record, derived fields included for grep-ability."""
        return {
            "mix": self.mix,
            "core": self.core,
            "app": self.app,
            "model": self.model,
            "fidelity": self.fidelity,
            "oracle": self.oracle,
            "estimate": self.estimate,
            "delta": self.delta,
            "abs_pct": self.abs_pct,
        }


@dataclass
class DivergenceReport:
    """Slowdown divergence of one surrogate tier vs the event oracle."""

    fidelity: str
    entries: List[DivergenceEntry]

    def models(self) -> List[str]:
        """Model names present, sorted."""
        return sorted({e.model for e in self.entries})

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-model ``{mean_abs_pct, max_abs_pct, count}``."""
        out: Dict[str, Dict[str, float]] = {}
        for model in self.models():
            errors = [
                e.abs_pct
                for e in self.entries
                if e.model == model and e.abs_pct == e.abs_pct  # drop NaN
            ]
            out[model] = {
                "mean_abs_pct": mean(errors) if errors else 0.0,
                "max_abs_pct": max(errors) if errors else 0.0,
                "count": float(len(errors)),
            }
        return out

    def to_json(self) -> Dict[str, Any]:
        """Deterministic JSON payload for the campaign store."""
        return {
            "fidelity": self.fidelity,
            "summary": self.summary(),
            "entries": [e.to_json() for e in self.entries],
        }

    def format_table(self) -> str:
        """Human-readable per-model divergence summary."""
        lines = [f"divergence vs event oracle ({self.fidelity} tier):"]
        for model, stats in sorted(self.summary().items()):
            lines.append(
                f"  {model:10s} mean |err| {stats['mean_abs_pct']:6.2f}%  "
                f"max {stats['max_abs_pct']:6.2f}%  "
                f"({int(stats['count'])} core-cells)"
            )
        return "\n".join(lines)


def compare_results(
    surrogate: RunResult,
    oracle: RunResult,
    fidelity: str = "analytical",
) -> List[DivergenceEntry]:
    """Per-core entries comparing a surrogate run against its oracle run.

    The oracle's ground truth is its measured ``actual_slowdowns``; the
    surrogate contributes one entry per model name in its estimates.
    """
    oracle_means = oracle.mean_actual_slowdowns()
    entries: List[DivergenceEntry] = []
    model_names = sorted(
        {name for r in surrogate.records for name in r.estimates}
    )
    for model in model_names:
        for core in range(surrogate.mix.num_cores):
            values = [
                r.estimates[model][core]
                for r in surrogate.records
                if model in r.estimates
            ]
            if not values:
                continue
            entries.append(
                DivergenceEntry(
                    mix=surrogate.mix.name,
                    core=core,
                    app=surrogate.mix.specs[core].name,
                    model=model,
                    fidelity=fidelity,
                    oracle=oracle_means[core],
                    estimate=mean(values),
                )
            )
    return entries


def cross_validate(
    campaign: "Campaign",
    cells: Sequence["CellSpec"],
    results: Sequence[Optional[RunResult]],
    sample_size: int = 1,
) -> Optional[DivergenceReport]:
    """Cross-validate a sample of analytic cells, drawn with a fixed seed,
    and persist the report.

    ``cells`` are one analytic survey's cells (one variant) and
    ``results`` their results, ``None`` where a cell failed. Each sampled
    cell's event twin runs through ``campaign.run_cells``; a sample whose
    surrogate or twin failed is skipped. Returns ``None``, and persists
    nothing, when no sample is left.
    """
    if not cells or sample_size <= 0:
        return None
    rng = random.Random(0)
    count = min(sample_size, len(cells))
    surrogates: List[RunResult] = []
    twins: List["CellSpec"] = []
    for index in sorted(rng.sample(range(len(cells)), count)):
        cell, surrogate = cells[index], results[index]
        if surrogate is not None:
            surrogates.append(surrogate)
            event = cell.config.with_engine("event")
            twins.append(dataclasses.replace(cell, config=event))
    entries: List[DivergenceEntry] = []
    for surrogate, oracle in zip(surrogates, campaign.run_cells(twins)):
        if oracle is not None:
            entries.extend(compare_results(surrogate, oracle))
    if not entries:
        return None
    report = DivergenceReport(fidelity="analytical", entries=entries)
    persist_report(campaign, report, variant=cells[0].variant)
    return report


def persist_report(
    campaign: "Campaign", report: DivergenceReport, variant: str = ""
) -> None:
    """Append ``report`` to the campaign store's ``divergence.jsonl``."""
    if campaign.store is None:
        return
    payload = dict(report.to_json())
    payload["key"] = f"{campaign.experiment}:{variant}"
    campaign.store.put_divergence(payload)


__all__ = [
    "ASM_DIVERGENCE_TOLERANCE_PCT",
    "DivergenceEntry",
    "DivergenceReport",
    "compare_results",
    "cross_validate",
    "persist_report",
]
