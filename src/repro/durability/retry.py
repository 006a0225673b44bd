"""Supervised retry: the retry policy and the circuit breaker.

A campaign cell that fails is not necessarily lost. Worker crashes and
watchdog timeouts are often *transient* (an OOM-killed sibling, a noisy
host) and succeed on a second attempt; an assertion failure inside the
deterministic simulator is not — the same inputs will fail the same way
forever, and burning the attempt budget on it just delays the campaign.

Two pieces implement the distinction:

* :class:`RetryPolicy` — how many attempts a cell gets, how long to
  back off between them (exponential, with *deterministically seeded*
  jitter so two runs of the same campaign sleep the same schedule), and
  an optional per-cell wall-clock budget.
* :class:`CircuitBreaker` — watches failure signatures per cell.
  Transient error types (:data:`TRANSIENT_ERRORS`) are always
  retryable; a deterministic error that repeats with the same signature
  opens the circuit and stops further attempts for that cell.

A cell the supervisor gives up on leaves one
:class:`~repro.resilience.faults.RunFailure` whose ``attempts`` and
``reason`` say how many attempts it had and why retrying stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.resilience.faults import stable_hash
from repro.telemetry.spec import fault_u01

#: Error types treated as transient: worth retrying without suspicion.
#: Everything else is presumed deterministic until proven otherwise.
#: A failure records ``type(exc).__name__``, so a wall-clock timeout
#: arrives as ``DeadlineExceeded``.
TRANSIENT_ERRORS: FrozenSet[str] = frozenset({"WorkerCrash", "DeadlineExceeded"})

#: Growth of the backoff from one attempt to the next.
BACKOFF_FACTOR = 2.0
#: Relative width of the deterministic jitter around each backoff.
JITTER = 0.5
#: Consecutive repeats of one deterministic failure signature that open
#: a cell's circuit.
TRIP_THRESHOLD = 2


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

        backoff_s * BACKOFF_FACTOR**(k-1) * (1 + JITTER * (u - 0.5))

    with ``u`` a sha256 draw keyed by (seed, cell fingerprint, k) — the
    schedule is fully deterministic per campaign, never shared between
    cells, and replays bit-identically.
    """

    max_attempts: int = 1
    backoff_s: float = 0.05
    seed: int = 0
    cell_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
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
        base = self.backoff_s * BACKOFF_FACTOR ** (attempt - 1)
        u = fault_u01(self.seed, "retry-jitter", cell_fingerprint, attempt)
        return max(0.0, base * (1.0 + JITTER * (u - 0.5)))

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
    :data:`TRIP_THRESHOLD` times opens the circuit for that cell.
    """

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
        if count >= TRIP_THRESHOLD:
            self._open[cell_fingerprint] = signature

    def record_success(self, cell_fingerprint: str) -> None:
        """Clear breaker state after a successful attempt."""
        self._state.pop(cell_fingerprint, None)
        self._open.pop(cell_fingerprint, None)

    def allows(self, cell_fingerprint: str) -> bool:
        """Whether another attempt of this cell is worth making."""
        return cell_fingerprint not in self._open


__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "TRANSIENT_ERRORS",
    "failure_signature",
]
