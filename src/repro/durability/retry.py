"""Supervised retry: policy, circuit breaker, and degraded outcomes.

A campaign cell that fails is not necessarily lost. Worker crashes and
watchdog timeouts are often *transient* (an OOM-killed sibling, a noisy
host) and succeed on a second attempt; an assertion failure inside the
deterministic simulator is not — the same inputs will fail the same way
forever, and burning the attempt budget on it just delays the campaign.

Three pieces implement the distinction:

* :class:`RetryPolicy` — how many attempts a cell gets, how long to
  back off between them (exponential, with *deterministically seeded*
  jitter so two runs of the same campaign sleep the same schedule), and
  an optional per-cell wall-clock budget.
* :class:`CircuitBreaker` — watches failure signatures per cell.
  Transient error types (:data:`TRANSIENT_ERRORS`) are always
  retryable; a deterministic error that repeats with the same signature
  opens the circuit and stops further attempts for that cell.
* :class:`DegradedCell` — the structured outcome recorded when a cell
  exhausts its attempts/budget under ``keep_going``: the campaign
  finishes, and the record says exactly why this cell did not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.resilience.faults import RunFailure, stable_hash
from repro.telemetry.spec import fault_u01

#: Error types treated as transient: worth retrying without suspicion.
#: Everything else is presumed deterministic until proven otherwise.
#: A failure records ``type(exc).__name__``, so a wall-clock timeout
#: arrives as ``DeadlineExceeded`` (``WatchdogTimeout`` is its alias).
TRANSIENT_ERRORS: FrozenSet[str] = frozenset(
    {"WorkerCrash", "WatchdogTimeout", "DeadlineExceeded"}
)


def failure_signature(error_type: str, message: str) -> str:
    """Identity of one failure *mode* (not one failure instance).

    Two attempts that die with the same type and message are the same
    failure replaying — the strongest evidence available that the
    failure is deterministic.
    """
    return stable_hash((error_type, message))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before declaring a cell degraded.

    The default (``max_attempts=1``) is exactly the pre-supervision
    behaviour: one attempt, no backoff, failure recorded immediately.
    Backoff for attempt *k* (the delay before attempt ``k+1``) is::

        backoff_s * backoff_factor**(k-1) * (1 + jitter * (u - 0.5))

    with ``u`` a sha256 draw keyed by (seed, cell fingerprint, k) — the
    schedule is fully deterministic per campaign, never shared between
    cells, and replays bit-identically.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    cell_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.cell_budget_s is not None and self.cell_budget_s <= 0:
            raise ValueError("cell_budget_s must be positive")

    @property
    def supervised(self) -> bool:
        """Whether this policy can ever retry (``max_attempts > 1``)."""
        return self.max_attempts > 1

    def delay_s(self, attempt: int, cell_fingerprint: str) -> float:
        """Backoff before the attempt *after* 1-based ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        u = fault_u01(self.seed, "retry-jitter", cell_fingerprint, attempt)
        return max(0.0, base * (1.0 + self.jitter * (u - 0.5)))

    def within_budget(self, elapsed_s: float) -> bool:
        """Whether a cell at ``elapsed_s`` wall seconds may try again."""
        return self.cell_budget_s is None or elapsed_s < self.cell_budget_s


@dataclass
class CircuitBreaker:
    """Stops burning attempts on failures that provably repeat.

    Per cell fingerprint, the breaker tracks the last failure signature
    and how many consecutive attempts produced it. Transient error
    types never trip the breaker (a crash-looping host still looks like
    distinct opportunities); a deterministic signature repeating
    ``trip_threshold`` times opens the circuit for that cell.
    """

    trip_threshold: int = 2
    _state: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    _open: Dict[str, str] = field(default_factory=dict)

    def record_failure(
        self, cell_fingerprint: str, error_type: str, message: str
    ) -> None:
        """Account one failed attempt of ``cell_fingerprint``."""
        if error_type in TRANSIENT_ERRORS:
            # A transient failure resets the deterministic-repeat count:
            # it says nothing about the cell's own computation.
            self._state.pop(cell_fingerprint, None)
            return
        signature = failure_signature(error_type, message)
        last, count = self._state.get(cell_fingerprint, ("", 0))
        count = count + 1 if signature == last else 1
        self._state[cell_fingerprint] = (signature, count)
        if count >= self.trip_threshold:
            self._open[cell_fingerprint] = signature

    def record_success(self, cell_fingerprint: str) -> None:
        """Clear breaker state after a successful attempt."""
        self._state.pop(cell_fingerprint, None)
        self._open.pop(cell_fingerprint, None)

    def allows(self, cell_fingerprint: str) -> bool:
        """Whether another attempt of this cell is worth making."""
        return cell_fingerprint not in self._open

    @property
    def open_cells(self) -> List[str]:
        """Fingerprints whose circuits are open (sorted, for summaries)."""
        return sorted(self._open)

    def summary(self) -> str:
        """One-line breaker status for campaign summaries."""
        if not self._open:
            return "circuit breaker: closed"
        return f"circuit breaker: OPEN for {len(self._open)} cell(s)"


#: Reasons a :class:`DegradedCell` may carry.
DEGRADED_REASONS: Tuple[str, ...] = (
    "attempts_exhausted",
    "budget_exhausted",
    "circuit_open",
)


@dataclass
class DegradedCell:
    """Structured record of a cell the supervisor gave up on.

    Recorded alongside the final :class:`RunFailure` (not instead of
    it) so the failure stays replayable while the degradation carries
    the supervision story: why retrying stopped and how many attempts
    were spent. Wall-clock measurements deliberately stay *out* of this
    record (rule NDT001): ``degraded.jsonl`` is part of the campaign's
    reproducible byte stream, and the budget outcome is already
    captured deterministically by ``reason == "budget_exhausted"``.
    Live timings belong to logs and profiles, not durable records.
    """

    experiment: str
    variant: str
    mix_name: str
    mix_seed: int
    cell_fingerprint: str
    reason: str
    attempts: int
    last_error_type: str
    last_message: str

    def __post_init__(self) -> None:
        if self.reason not in DEGRADED_REASONS:
            raise ValueError(
                f"unknown degradation reason {self.reason!r}; "
                f"valid: {', '.join(DEGRADED_REASONS)}"
            )

    @classmethod
    def from_failure(
        cls,
        failure: RunFailure,
        *,
        reason: str,
        attempts: int,
    ) -> "DegradedCell":
        """Build the degradation record for ``failure``'s cell."""
        return cls(
            experiment=failure.experiment,
            variant=failure.variant,
            mix_name=failure.mix_name,
            mix_seed=failure.mix_seed,
            cell_fingerprint=failure.fingerprint(),
            reason=reason,
            attempts=attempts,
            last_error_type=failure.error_type,
            last_message=failure.message,
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "DegradedCell":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def describe(self) -> str:
        """One-line human-readable degradation description."""
        return (
            f"{self.mix_name} (variant {self.variant or '-'}): "
            f"{self.reason} after {self.attempts} attempt(s) — "
            f"last error {self.last_error_type}: {self.last_message}"
        )


__all__ = [
    "CircuitBreaker",
    "DEGRADED_REASONS",
    "DegradedCell",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "failure_signature",
]
