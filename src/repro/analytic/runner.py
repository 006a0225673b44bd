"""Analytic cell runner and the fidelity → engine mapping.

:func:`run_analytic` produces the same :class:`~repro.harness.runner.RunResult`
shape the event tier produces, so campaign stores, error
surveys, fairness metrics and the fleet tier consume analytic cells
unchanged:

* ``actual_slowdowns`` — the closed-form slowdown
  ``CPI_shared / CPI_alone`` per core (the analytic tier's ground truth
  *is* its estimate; divergence from the event oracle is measured by
  :mod:`repro.analytic.crossval`, not hidden inside the record);
* ``estimates`` — the same values under both ``"analytic"`` and
  ``"asm"`` (the fleet's placement model name), with confidence 1.0 and
  no degradation: the surrogate consumes no CounterBank telemetry, so
  telemetry fault injection does not apply to it;
* ``instructions`` / ``shared_ipc`` — extrapolated from the converged
  CPI over each quantum.

Analytic cells need **no alone runs** — the alone fixed point is part of
the math — which is why :mod:`repro.parallel` hands an analytic cell no
alone prefixes and its attempt simulates none.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.analytic.cpi import CoreRates, solve_alone, solve_shared
from repro.analytic.reuse import profile_mix
from repro.config import SystemConfig
from repro.harness.runner import QuantumRecord, RunResult
from repro.workloads.mixes import WorkloadMix

#: Fidelity tiers a campaign cell may declare, fastest first.
FIDELITY_TIERS: Tuple[str, ...] = ("analytical", "event")

#: Fidelity tier → ``SystemConfig.engine`` value. The engine is what the
#: store fingerprints, so two tiers of the same cell never collide.
ENGINE_FOR_FIDELITY: Dict[str, str] = {
    "analytical": "analytic",
    "event": "event",
}


def resolve_fidelity(config: SystemConfig, fidelity: str) -> SystemConfig:
    """``config`` with its engine set for ``fidelity``.

    An empty fidelity means "whatever ``config.engine`` already says".
    """
    if not fidelity:
        return config
    engine = ENGINE_FOR_FIDELITY.get(fidelity)
    if engine is None:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITY_TIERS}"
        )
    if config.engine == engine:
        return config
    return config.with_engine(engine)


def run_analytic(
    mix: WorkloadMix,
    config: SystemConfig,
    quanta: int = 1,
) -> RunResult:
    """Estimate ``quanta`` quanta of ``mix`` in closed form.

    Wall cost is profile extraction (per core, one pass over the sample
    plus, per reuse, a bisection and a memmove of as many list entries as
    its stack distance; memoised per process) plus a fixed-round solve —
    independent of ``quantum_cycles``, which is the entire point of the
    tier.
    """
    config = dataclasses.replace(
        config, num_cores=mix.num_cores, engine="analytic"
    )
    config.validate()
    profiles = profile_mix(mix)
    shared = solve_shared(profiles, config)
    alone = [solve_alone(p, config) for p in profiles]
    slowdowns = [s.cpi / a.cpi for s, a in zip(shared, alone)]
    records = _records(shared, slowdowns, config, quanta)
    return RunResult(mix=mix, config=config, records=records)


def _records(
    shared: List[CoreRates],
    slowdowns: List[float],
    config: SystemConfig,
    quanta: int,
) -> List[QuantumRecord]:
    n = len(shared)
    records: List[QuantumRecord] = []
    prev = [0] * n
    for q in range(quanta):
        cumulative = [
            int((q + 1) * config.quantum_cycles / shared[i].cpi)
            for i in range(n)
        ]
        ipc = [
            (cumulative[i] - prev[i]) / config.quantum_cycles
            for i in range(n)
        ]
        records.append(
            QuantumRecord(
                index=q,
                instructions=cumulative,
                shared_ipc=ipc,
                actual_slowdowns=list(slowdowns),
                estimates={
                    "analytic": list(slowdowns),
                    "asm": list(slowdowns),
                },
                confidence={
                    "analytic": [1.0] * n,
                    "asm": [1.0] * n,
                },
                degraded={
                    "analytic": [None] * n,
                    "asm": [None] * n,
                },
            )
        )
        prev = cumulative
    return records


__all__ = [
    "ENGINE_FOR_FIDELITY",
    "FIDELITY_TIERS",
    "resolve_fidelity",
    "run_analytic",
]
