"""Fault-injection specification for telemetry counter reads.

Each :class:`TelemetrySpec` names one hardware failure mode, a fault rate
and a seed. The classes map to the counters the paper's mechanism relies
on (see DESIGN.md for the full mapping):

``saturation``
    N-bit saturating counters stick at ``2**counter_bits - 1`` (readers
    can detect the all-ones pattern, so a saturated read is flagged).
``wraparound``
    N-bit counters overflow silently (value modulo ``2**counter_bits``);
    only cross-counter conservation checks can catch it.
``dropped_read``
    A quantum-boundary counter read fails and returns zero (the read
    transaction errors out, so the reader knows).
``delayed_read``
    A quantum-boundary read returns the *previous* read's value — the
    telemetry mailbox was not updated in time (detectable: the sample is
    stamped stale).
``ats_corruption``
    Sampled auxiliary-tag-store hit counters (Section 4.4) are perturbed
    upward — a corrupted set sample inflates the sampled hit counts.
    Silent unless the value violates ``hits <= accesses``.
``epoch_glitch``
    The epoch-ownership register misattributes an epoch to the wrong
    application (Section 4.2); the parity check on the register flags the
    glitch, but the epoch counters are already polluted.

All randomness is derived from ``sha256`` digests of the (seed, site)
tuple, never from ``random`` state or ``hash()``, so fault streams are
bit-reproducible across processes and independent of read order changes
elsewhere in the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

FAULT_CLASSES: Tuple[str, ...] = (
    "saturation",
    "wraparound",
    "dropped_read",
    "delayed_read",
    "ats_corruption",
    "epoch_glitch",
)

#: Rate used by ``TelemetrySpec.parse`` when the CLI gives only a class.
DEFAULT_FAULT_RATE = 0.01


@dataclass(frozen=True)
class TelemetrySpec:
    """One deterministic telemetry-fault configuration.

    ``counter_bits`` is the width of the narrow hardware counters that
    saturation/wraparound faults select; 8 bits keeps the failure modes
    reachable in the scaled-down simulator configurations.
    """

    fault_class: str
    rate: float
    seed: int = 0
    counter_bits: int = 8

    def __post_init__(self) -> None:
        if self.fault_class not in FAULT_CLASSES:
            raise ValueError(
                f"unknown fault class {self.fault_class!r}; "
                f"valid: {', '.join(FAULT_CLASSES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.counter_bits < 2:
            raise ValueError("counter_bits must be at least 2")

    @classmethod
    def parse(cls, text: str) -> "TelemetrySpec":
        """Parse the CLI form ``CLASS`` or ``CLASS:RATE``."""
        name, _, rate_text = text.partition(":")
        name = name.strip().replace("-", "_")
        try:
            rate = float(rate_text) if rate_text else DEFAULT_FAULT_RATE
        except ValueError:
            raise ValueError(
                f"bad fault rate {rate_text!r} in {text!r} "
                "(expected CLASS or CLASS:RATE)"
            ) from None
        return cls(fault_class=name, rate=rate)

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TelemetrySpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})  # type: ignore[arg-type]


def fault_u01(seed: int, salt: str, *site: object) -> float:
    """Deterministic uniform-[0,1) draw keyed by (seed, salt, site).

    Built on sha256 of the site's ``repr`` — stable across processes and
    interpreter runs, unlike ``hash()`` (randomised for strings) or any
    shared ``random.Random`` stream (which read-order changes would
    perturb).
    """
    payload = repr((seed, salt, site)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


__all__ = ["DEFAULT_FAULT_RATE", "FAULT_CLASSES", "TelemetrySpec", "fault_u01"]
