"""Structured failure records for fault-isolated experiment campaigns.

A campaign sweeping many workload mixes should survive one crashing mix.
When a per-mix run raises, the campaign captures a :class:`RunFailure`
carrying everything needed to *deterministically replay* the failing run —
the full application specs, the mix seed, a fingerprint of the platform
configuration and the quantum count — alongside the exception and
traceback. Under a retry policy the record also says how many attempts
the cell had and why the supervisor stopped retrying it. Campaigns finish
with a failure-summary table, and :func:`replay_failure` re-runs a
recorded failure in isolation.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.workloads.mixes import WorkloadMix
from repro.workloads.synthetic import AppSpec


def stable_hash(obj: object) -> str:
    """Deterministic short hex digest of ``repr(obj)``.

    Safe for (nested) frozen dataclasses, tuples, ints and strings, whose
    reprs are stable across processes — unlike ``hash()``, which is
    randomised per interpreter for strings.
    """
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


def config_fingerprint(config: SystemConfig) -> str:
    """Fingerprint of the full platform configuration.

    Two runs with equal fingerprints simulate identical platforms, so the
    fingerprint keys checkpoint stores and failure-replay records.

    The execution tier is part of the fingerprint only when it is not
    the default: an analytic cell must never share a key with its event
    twin, while dropping the default ``engine='event'`` suffix keeps every
    fingerprint (and thus every existing campaign store) from before the
    field existed valid.
    """
    text = repr(config)
    default_suffix = ", engine='event')"
    if config.engine == "event" and text.endswith(default_suffix):
        text = text[: -len(default_suffix)] + ")"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Why a supervisor stopped retrying a failed cell (``RunFailure.reason``).
GIVE_UP_REASONS: Tuple[str, ...] = (
    "attempts_exhausted",
    "budget_exhausted",
    "circuit_open",
)


@dataclass
class RunFailure:
    """One captured per-mix failure, sufficient for deterministic replay.

    ``attempts`` counts the attempts the cell had, this failure's
    included. ``reason`` is set only when the retry policy could retry
    (one of :data:`GIVE_UP_REASONS`): such a cell is *degraded*, given up
    by the supervisor. Neither is part of :meth:`fingerprint`, and wall
    clocks stay out of the record (rule NDT001): ``failures.jsonl`` is
    part of the campaign's reproducible byte stream, and a budget outcome
    is captured by ``reason == "budget_exhausted"``.
    """

    experiment: str
    variant: str
    mix_name: str
    mix_seed: int
    specs: List[dict]  # full AppSpec fields, one dict per core
    config_fingerprint: str
    quanta: int
    error_type: str
    message: str
    traceback: str = ""
    diagnosis: Dict[str, object] = field(default_factory=dict)
    # Telemetry-fault spec (TelemetrySpec.to_json()) active during the run,
    # or None for perfect telemetry. Recorded so replay_failure reproduces
    # injected counter faults bit-identically.
    telemetry: Optional[dict] = None
    attempts: int = 1
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reason is not None and self.reason not in GIVE_UP_REASONS:
            raise ValueError(
                f"unknown give-up reason {self.reason!r}; "
                f"valid: {', '.join(GIVE_UP_REASONS)}"
            )

    def fingerprint(self) -> str:
        """Identity of the failing (experiment, mix, platform, length) cell."""
        key: tuple = (
            self.experiment,
            self.variant,
            self.mix_name,
            self.mix_seed,
            self.config_fingerprint,
            self.quanta,
        )
        if self.telemetry is not None:
            # Appended (rather than always present) so fingerprints of
            # fault-free failures match records from earlier versions.
            key += (tuple(sorted(self.telemetry.items())),)
        return stable_hash(key)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RunFailure":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


def rebuild_mix(failure: RunFailure) -> WorkloadMix:
    """Reconstruct the exact failing workload mix from a failure record."""
    specs = tuple(AppSpec(**spec) for spec in failure.specs)
    return WorkloadMix(name=failure.mix_name, specs=specs, seed=failure.mix_seed)


def replay_failure(failure: RunFailure, config: SystemConfig, **run_kwargs):
    """Re-run the failing mix on ``config`` (which must match the recorded
    fingerprint) — the deterministic simulator reproduces the failure, or a
    fixed build proves it is gone. Extra kwargs pass to ``run_workload``."""
    recorded = failure.config_fingerprint
    actual = config_fingerprint(config)
    if recorded != actual:
        raise ValueError(
            f"config fingerprint mismatch: failure was recorded on "
            f"{recorded}, replay config is {actual}"
        )
    from repro.harness.runner import run_workload

    run_kwargs.setdefault("quanta", failure.quanta)
    if failure.telemetry is not None and "telemetry" not in run_kwargs:
        from repro.telemetry.spec import TelemetrySpec

        run_kwargs["telemetry"] = TelemetrySpec.from_json(failure.telemetry)
    return run_workload(rebuild_mix(failure), config, **run_kwargs)


def failure_table(failures: Sequence[RunFailure]) -> str:
    """Plain-text summary table of a campaign's captured failures."""
    from repro.experiments.common import format_table

    rows = [
        [
            f.variant or f.experiment,
            f.mix_name,
            f.mix_seed,
            f.error_type,
            f.attempts,
            f.reason or "-",
            f.fingerprint(),
            f.message if len(f.message) <= 60 else f.message[:57] + "...",
        ]
        for f in failures
    ]
    return format_table(
        [
            "variant", "mix", "seed", "error", "attempts", "reason",
            "fingerprint", "message",
        ],
        rows,
    )


__all__ = [
    "GIVE_UP_REASONS",
    "RunFailure",
    "config_fingerprint",
    "failure_table",
    "rebuild_mix",
    "replay_failure",
    "stable_hash",
]
