"""Fidelity sweep: the same cells at every tier, accuracy vs runtime.

Runs one set of workload mixes at both fidelity tiers (see
docs/fidelity.md) — ``analytical`` (closed form, :mod:`repro.analytic`)
and ``event`` (the per-callback oracle) — and reports, per tier, the
wall time and the divergence of the analytic tier's ASM slowdown
estimates from the oracle's measured slowdowns. The analytic tier's
estimate IS its output: it reports the same values as its measured
slowdowns, so one ``asm`` comparison covers both.

Under a campaign with a store, each tier's divergence report is also
persisted to ``divergence.jsonl`` (variant ``fid:<tier>``), readable
later with ``CampaignStore.load_divergence``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analytic.crossval import (
    DivergenceEntry,
    DivergenceReport,
    compare_results,
    persist_report,
)
from repro.analytic.runner import FIDELITY_TIERS, resolve_fidelity
from repro.config import SystemConfig, scaled_config
from repro.experiments.common import default_mixes, format_table, unsampled_models
from repro.harness.runner import RunResult


@dataclass
class TierOutcome:
    """One fidelity tier's runs, wall time and divergence report."""

    fidelity: str
    wall_s: float
    results: List[Optional[RunResult]]
    report: Optional[DivergenceReport] = None


@dataclass
class FidelitySweepResult:
    """Per-tier outcomes of one fidelity sweep, event oracle last."""

    tiers: Dict[str, TierOutcome]

    def format_table(self) -> str:
        event_wall = self.tiers["event"].wall_s
        rows: List[List[object]] = []
        for tier in FIDELITY_TIERS:
            outcome = self.tiers[tier]
            speedup = event_wall / outcome.wall_s if outcome.wall_s else float("nan")
            if outcome.report is not None:
                asm = outcome.report.summary().get("asm", {})
                asm_err = asm.get("mean_abs_pct", float("nan"))
                asm_max = asm.get("max_abs_pct", float("nan"))
            else:
                asm_err = asm_max = 0.0  # the oracle itself
            rows.append([tier, outcome.wall_s, speedup, asm_err, asm_max])
        return (
            "Fidelity sweep: slowdown divergence vs the event oracle\n"
            + format_table(
                ["tier", "wall_s", "speedup", "asm_err%", "asm_max%"], rows
            )
        )


def run(
    num_mixes: int = 3,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    campaign=None,
    workers: int = 1,
) -> FidelitySweepResult:
    """Run ``num_mixes`` mixes at both tiers and compare them."""
    from repro.parallel import CellSpec, run_cells
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    camp = campaign if campaign is not None else Campaign("fidelity")
    tiers: Dict[str, TierOutcome] = {}
    for tier in FIDELITY_TIERS:
        cells = [
            CellSpec(
                mix=mix,
                config=resolve_fidelity(config, tier),
                quanta=quanta,
                variant=f"fid:{tier}",
                recipe=unsampled_models,
            )
            for mix in mixes
        ]
        start = _time.perf_counter()
        results = run_cells(camp, cells, workers=workers)
        tiers[tier] = TierOutcome(
            fidelity=tier,
            wall_s=_time.perf_counter() - start,
            results=results,
        )
    oracle = tiers["event"].results
    for tier in FIDELITY_TIERS:
        if tier == "event":
            continue
        entries: List[DivergenceEntry] = []
        for surrogate_result, oracle_result in zip(tiers[tier].results, oracle):
            if surrogate_result is None or oracle_result is None:
                continue
            entries.extend(
                entry
                for entry in compare_results(
                    surrogate_result, oracle_result, fidelity=tier
                )
                if entry.model == "asm"
            )
        report = DivergenceReport(fidelity=tier, entries=entries)
        tiers[tier].report = report
        persist_report(camp, report, variant=f"fid:{tier}")
    return FidelitySweepResult(tiers=tiers)


__all__ = [
    "FidelitySweepResult",
    "TierOutcome",
    "run",
]
