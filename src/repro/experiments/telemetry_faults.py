"""Telemetry-fault chaos suite: estimator robustness under counter faults.

Sweeps every telemetry fault class (see :mod:`repro.telemetry`) across
fault rates and reports, per (fault class, rate, model):

* **deviation** of the slowdown estimates from the fault-free baseline
  (mean absolute percent difference over core-quanta) — how much damage
  the fault does;
* **degraded fraction** — the share of core-quanta the model *flagged*
  (confidence < 1), i.e. how much of the damage the guarded read path
  detected;
* **mean confidence** and a non-finite output count (which must stay 0:
  the guarded path never emits NaN/inf, it clamps and falls back).

Every cell runs under a :class:`repro.resilience.campaign.Campaign`
(checkpointable, fault-isolated, ``--workers``-parallel). The baseline
cells use perfect telemetry and are bit-identical to the same sweep run
before the telemetry layer existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import (
    EQUAL_OVERHEAD_FILTER_COUNTERS,
    default_mixes,
    format_table,
)
from repro.harness import metrics
from repro.harness.runner import RunResult
from repro.telemetry import FAULT_CLASSES, TelemetrySpec

#: Default fault rates: the acceptance sweep (1% and 10%).
DEFAULT_RATES: Tuple[float, ...] = (0.01, 0.1)


def chaos_model_factories(config: SystemConfig) -> Dict[str, Any]:
    """All five slowdown models in their practical configurations.

    Module-level (picklable by reference) so the chaos suite can fan cells
    out across worker processes."""
    sets = config.ats_sampled_sets
    return {"model_factories": {
        "asm": lambda: _asm(sets),
        "mise": lambda: _mise(),
        "fst": lambda: _fst(),
        "ptca": lambda: _ptca(sets),
        "stfm": lambda: _stfm(),
    }}


def _asm(sets: int):
    from repro.models.asm import AsmModel

    return AsmModel(sampled_sets=sets)


def _mise():
    from repro.models.mise import MiseModel

    return MiseModel()


def _fst():
    from repro.models.fst import FstModel

    return FstModel(filter_counters=EQUAL_OVERHEAD_FILTER_COUNTERS)


def _ptca(sets: int):
    from repro.models.ptca import PtcaModel

    return PtcaModel(sampled_sets=sets)


def _stfm():
    from repro.models.stfm import StfmModel

    return StfmModel()


@dataclass
class ChaosRow:
    """Robustness report for one (fault class, rate, model) cell group."""

    fault_class: str
    rate: float
    model: str
    deviation_pct: float  # mean |estimate - baseline| / baseline * 100
    degraded_fraction: float  # share of core-quanta with confidence < 1
    mean_confidence: float
    nonfinite: int  # estimates outside finite [1, 50] (must be 0)
    failures: int  # mixes that crashed (must be 0)


@dataclass
class TelemetryFaultsResult:
    rows: List[ChaosRow] = field(default_factory=list)
    baseline_failures: int = 0

    def total_failures(self) -> int:
        return self.baseline_failures + sum(r.failures for r in self.rows)

    def total_nonfinite(self) -> int:
        return sum(r.nonfinite for r in self.rows)

    def any_degraded(self) -> bool:
        """Did at least one faulted cell flag degradation?"""
        return any(r.degraded_fraction > 0 for r in self.rows)

    def format_table(self) -> str:
        rows = [
            [
                r.fault_class,
                f"{r.rate:g}",
                r.model,
                r.deviation_pct,
                r.degraded_fraction,
                r.mean_confidence,
                r.nonfinite,
                r.failures,
            ]
            for r in self.rows
        ]
        header = (
            "Telemetry-fault chaos suite: estimate deviation vs fault-free "
            "baseline, and detection (degraded fraction / confidence)"
        )
        return header + "\n" + format_table(
            [
                "fault",
                "rate",
                "model",
                "deviation%",
                "degraded",
                "confidence",
                "nonfinite",
                "failed",
            ],
            rows,
        )


def _collect(
    results: Sequence[Optional[RunResult]],
) -> Tuple[Dict[str, List[Tuple[int, int, float, float]]], int]:
    """Flatten runs into model -> [(run, core-quantum, estimate, conf)].

    The (run index, core-quantum index) pair aligns faulted sweeps with
    the baseline sweep position-by-position; failed runs are skipped and
    counted."""
    flat: Dict[str, List[Tuple[int, int, float, float]]] = {}
    failures = 0
    for run_index, result in enumerate(results):
        if result is None:
            failures += 1
            continue
        for record in result.records:
            for model, estimates in record.estimates.items():
                confidence = record.confidence.get(model, [1.0] * len(estimates))
                rows = flat.setdefault(model, [])
                for core, estimate in enumerate(estimates):
                    slot = record.index * len(estimates) + core
                    rows.append((run_index, slot, estimate, confidence[core]))
    return flat, failures


def run(
    num_mixes: int = 3,
    quanta: int = 2,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    fault_classes: Optional[Sequence[str]] = None,
    rates: Sequence[float] = DEFAULT_RATES,
    campaign=None,
    workers: int = 1,
) -> TelemetryFaultsResult:
    """Run the chaos sweep: baseline + every fault class at every rate."""
    from repro.parallel import CellSpec
    from repro.resilience.campaign import Campaign

    config = config or scaled_config()
    classes = tuple(fault_classes) if fault_classes else FAULT_CLASSES
    for fault_class in classes:
        if fault_class not in FAULT_CLASSES:
            raise ValueError(f"unknown fault class {fault_class!r}")
    mixes = default_mixes(num_mixes, config.num_cores, seed=seed)
    camp = campaign if campaign is not None else Campaign("telemetry-faults")

    def cells_for(spec: Optional[TelemetrySpec], variant: str) -> List[CellSpec]:
        return [
            CellSpec(
                mix=mix,
                config=config,
                quanta=quanta,
                variant=variant,
                recipe=chaos_model_factories,
                recipe_args=(config,),
                telemetry=spec,
            )
            for mix in mixes
        ]

    baseline_runs = camp.run_cells(cells_for(None, "baseline"), workers=workers)
    baseline, baseline_failures = _collect(baseline_runs)
    result = TelemetryFaultsResult(baseline_failures=baseline_failures)

    for fault_class in classes:
        for rate in rates:
            spec = TelemetrySpec(fault_class=fault_class, rate=rate)
            variant = f"{fault_class}@{rate:g}"
            runs = camp.run_cells(cells_for(spec, variant), workers=workers)
            faulted, failures = _collect(runs)
            for model in sorted(faulted):
                rows = faulted[model]
                base_rows = {
                    (ri, slot): est for ri, slot, est, _ in baseline.get(model, [])
                }
                deviations: List[float] = []
                confidences: List[float] = []
                degraded = 0
                nonfinite = 0
                for run_index, slot, estimate, confidence in rows:
                    if not math.isfinite(estimate):
                        nonfinite += 1
                    confidences.append(confidence)
                    if confidence < 1.0:
                        degraded += 1
                    base = base_rows.get((run_index, slot))
                    if base is not None and base > 0 and math.isfinite(estimate):
                        deviations.append(abs(estimate - base) / base * 100.0)
                result.rows.append(
                    ChaosRow(
                        fault_class=fault_class,
                        rate=rate,
                        model=model,
                        deviation_pct=(
                            metrics.mean(deviations) if deviations else 0.0
                        ),
                        degraded_fraction=(
                            degraded / len(rows) if rows else 0.0
                        ),
                        mean_confidence=(
                            metrics.mean(confidences) if confidences else 1.0
                        ),
                        nonfinite=nonfinite,
                        failures=failures,
                    )
                )
    return result
