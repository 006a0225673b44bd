"""Trace event model: categories, masks and the event record itself.

Categories are single bits so a :class:`~repro.obs.bus.TraceBus` can gate
emission with one integer AND. Event *kinds* (the ``kind`` string on each
event) subdivide a category; the stable kinds emitted by the simulator:

==========  ==========  =====================================================
category    kind        emitted when
==========  ==========  =====================================================
QUANTUM     quantum     a quantum boundary: ground truth, per-core IPC,
                        the quantum's engine events and per-core demand
                        hits, demand misses and queueing cycles
EPOCH       epoch       the epoch driver assigns an owner (prioritisation)
EPOCH       measure     the owner's post-warm-up measurement window opens
CACHE       access      one shared-LLC demand access (hit or primary miss)
MODEL       estimates   a model published its per-core slowdown estimates
POLICY      *           a policy acted (``reallocation``/``reweight``) or
                        declined to (``skip``)
GUARD       degraded    an EstimateGuard replaced or down-weighted a core's
                        estimate
FAULT       *           a watchdog/deadline abort (``watchdog-stall``,
                        ``deadline-exceeded``) crossed the runner
==========  ==========  =====================================================

Timestamps are **simulated cycles** (``engine.now`` at emission), never
wall-clock: traces from two runs of the same seed are directly diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

#: Quantum boundaries: ground truth, shared IPC, instructions, counts.
QUANTUM = 1
#: Epoch driver: ownership assignments and measurement-window openings.
EPOCH = 2
#: Per-access shared-cache stream (high volume; off by default).
CACHE = 4
#: Model estimates at each quantum boundary (ASM stats ride along).
MODEL = 8
#: Policy decisions: reallocations, epoch reweights, confidence skips.
POLICY = 16
#: EstimateGuard degradations (soft clamps and hard fallbacks).
GUARD = 32
#: Watchdog stalls, wall-clock deadline aborts, captured run failures.
FAULT = 64

#: Category bit -> canonical lowercase name (serialisation format).
CATEGORY_NAMES: Dict[int, str] = {
    QUANTUM: "quantum",
    EPOCH: "epoch",
    CACHE: "cache",
    MODEL: "model",
    POLICY: "policy",
    GUARD: "guard",
    FAULT: "fault",
}

_NAME_TO_CATEGORY: Dict[str, int] = {
    name: bit for bit, name in CATEGORY_NAMES.items()
}

#: Every category enabled.
ALL_CATEGORIES = 0
for _bit in CATEGORY_NAMES:
    ALL_CATEGORIES |= _bit

#: The default mask: everything except the per-access CACHE firehose,
#: which multiplies event volume by the access count of the run.
DEFAULT_CATEGORIES = ALL_CATEGORIES & ~CACHE


def mask_for(names: Iterable[str]) -> int:
    """Build a category mask from names (``["quantum", "model"]``).

    ``"all"`` selects every category; ``"default"`` selects
    :data:`DEFAULT_CATEGORIES` (everything but CACHE). Unknown names raise
    ``ValueError`` so CLI typos fail loudly instead of silently tracing
    nothing.
    """
    mask = 0
    for name in names:
        key = name.strip().lower()
        if not key:
            continue
        if key == "all":
            return ALL_CATEGORIES
        if key == "default":
            mask |= DEFAULT_CATEGORIES
            continue
        bit = _NAME_TO_CATEGORY.get(key)
        if bit is None:
            valid = ", ".join(sorted(_NAME_TO_CATEGORY))
            raise ValueError(
                f"unknown trace category {name!r}; valid: {valid}, "
                "all, default"
            )
        mask |= bit
    return mask


@dataclass
class TraceEvent:
    """One structured trace record.

    ``cycle`` is simulated time (``engine.now`` at emission), ``category``
    one of the bit constants in this module, ``kind`` the event subtype,
    and ``data`` the kind-specific payload (JSON-serialisable values
    only, by convention of the emit sites).
    """

    cycle: int
    category: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """Serialise to a JSON-ready dict (category by name)."""
        return {
            "cycle": self.cycle,
            "category": CATEGORY_NAMES.get(self.category, str(self.category)),
            "kind": self.kind,
            "data": self.data,
        }

    @classmethod
    def from_json(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_json` output."""
        raw = record["category"]
        category = _NAME_TO_CATEGORY.get(raw, 0) if isinstance(raw, str) else int(raw)
        return cls(
            cycle=int(record["cycle"]),
            category=category,
            kind=str(record["kind"]),
            data=dict(record.get("data") or {}),
        )


__all__ = [
    "ALL_CATEGORIES",
    "CACHE",
    "CATEGORY_NAMES",
    "DEFAULT_CATEGORIES",
    "EPOCH",
    "FAULT",
    "GUARD",
    "MODEL",
    "POLICY",
    "QUANTUM",
    "TraceEvent",
    "mask_for",
]
