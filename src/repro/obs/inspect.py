"""Trace inspector: fold an event stream into a per-quantum narrative.

The simulator emits events in a fixed order within each quantum (epochs
during the quantum; model estimates, guard degradations and policy
decisions at the boundary; the runner's ``quantum`` record last), so the
summariser is a single pass: accumulate until a ``quantum`` event closes
the window, then start the next one.

This is the debugging view the paper's Figures 4/9/10 imply: for every
quantum, each core's estimated CAR_alone vs measured CAR_shared, the
epoch-ownership fractions those estimates were built from, and what the
policies did about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.obs.events import (
    CATEGORY_NAMES,
    EPOCH,
    FAULT,
    GUARD,
    MODEL,
    POLICY,
    QUANTUM,
    TraceEvent,
)


@dataclass
class QuantumSummary:
    """Everything the trace recorded about one quantum."""

    index: int
    cycle: int
    instructions: List[int] = field(default_factory=list)
    shared_ipc: List[float] = field(default_factory=list)
    actual_slowdowns: List[float] = field(default_factory=list)
    #: model name -> the MODEL "estimates" event payload (estimates,
    #: confidence, degraded, optional per-core ``stats``).
    models: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: core -> epochs owned during this quantum.
    epoch_counts: Dict[int, int] = field(default_factory=dict)
    policy_events: List[Dict[str, Any]] = field(default_factory=list)
    guard_events: List[Dict[str, Any]] = field(default_factory=list)
    fault_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def num_cores(self) -> int:
        """Core count, inferred from the per-core ground-truth lists."""
        return len(self.instructions)

    @property
    def total_epochs(self) -> int:
        """Epochs observed in this quantum across all owners."""
        return sum(self.epoch_counts.values())

    def epoch_fraction(self, core: int) -> float:
        """Fraction of this quantum's epochs owned by ``core``."""
        total = self.total_epochs
        return self.epoch_counts.get(core, 0) / total if total else 0.0


def summarize_events(events: Sequence[TraceEvent]) -> List[QuantumSummary]:
    """Group an ordered event stream into one summary per quantum.

    Events after the last ``quantum`` boundary (a truncated trace) are
    dropped; ring-buffer traces may also lose the *head* of the run, in
    which case the first summary only covers what survived.
    """
    summaries: List[QuantumSummary] = []
    pending = QuantumSummary(index=-1, cycle=0)
    for event in events:
        if event.category == EPOCH:
            if event.kind == "epoch":
                owner = int(event.data.get("owner", -1))
                pending.epoch_counts[owner] = pending.epoch_counts.get(owner, 0) + 1
        elif event.category == MODEL:
            name = str(event.data.get("model", "?"))
            pending.models[name] = dict(event.data)
        elif event.category == POLICY:
            record = dict(event.data)
            record["kind"] = event.kind
            pending.policy_events.append(record)
        elif event.category == GUARD:
            pending.guard_events.append(dict(event.data))
        elif event.category == FAULT:
            record = dict(event.data)
            record["kind"] = event.kind
            pending.fault_events.append(record)
        elif event.category == QUANTUM:
            pending.index = int(event.data.get("index", len(summaries)))
            pending.cycle = event.cycle
            pending.instructions = list(event.data.get("instructions", []))
            pending.shared_ipc = list(event.data.get("shared_ipc", []))
            pending.actual_slowdowns = list(
                event.data.get("actual_slowdowns", [])
            )
            summaries.append(pending)
            pending = QuantumSummary(index=-1, cycle=0)
    return summaries


def _fmt(value: Any) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_summary(summaries: Sequence[QuantumSummary]) -> str:
    """Render quantum summaries as the human-readable narrative."""
    if not summaries:
        return "no quantum boundaries in trace"
    lines: List[str] = []
    for summary in summaries:
        lines.append(f"quantum {summary.index} @ cycle {summary.cycle}")
        if summary.epoch_counts:
            parts = [
                f"core{core} {summary.epoch_fraction(core):.0%}"
                f" ({summary.epoch_counts[core]})"
                for core in sorted(summary.epoch_counts)
            ]
            lines.append(
                f"  epoch ownership ({summary.total_epochs} epochs): "
                + ", ".join(parts)
            )
        for name in sorted(summary.models):
            payload = summary.models[name]
            estimates = payload.get("estimates", [])
            confidence = payload.get("confidence", [])
            stats = payload.get("stats") or []
            lines.append(f"  model {name}:")
            header = (
                f"    {'core':>4s} {'CAR_alone':>10s} {'CAR_shared':>10s} "
                f"{'est':>7s} {'actual':>7s} {'conf':>5s}"
            )
            lines.append(header)
            for core in range(summary.num_cores or len(estimates)):
                stat = stats[core] if core < len(stats) else {}
                est = estimates[core] if core < len(estimates) else float("nan")
                conf = confidence[core] if core < len(confidence) else 1.0
                actual = (
                    summary.actual_slowdowns[core]
                    if core < len(summary.actual_slowdowns)
                    else float("nan")
                )
                lines.append(
                    f"    {core:>4d} "
                    f"{_fmt(stat.get('car_alone', float('nan'))):>10s} "
                    f"{_fmt(stat.get('car_shared', float('nan'))):>10s} "
                    f"{_fmt(est):>7s} {_fmt(actual):>7s} {conf:>5.2f}"
                )
        for event in summary.policy_events:
            detail = ", ".join(
                f"{k}={_fmt(v)}"
                for k, v in sorted(event.items())
                if k not in ("kind", "policy")
            )
            lines.append(
                f"  policy {event.get('policy', '?')} "
                f"{event.get('kind', '?')}" + (f": {detail}" if detail else "")
            )
        for event in summary.guard_events:
            lines.append(
                f"  guard {event.get('model', '?')} core{event.get('core', '?')}"
                f" degraded: {event.get('reason', '?')}"
                f" (conf {_fmt(event.get('confidence', float('nan')))})"
            )
        for event in summary.fault_events:
            detail = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(event.items()) if k != "kind"
            )
            lines.append(
                f"  FAULT {event.get('kind', '?')}"
                + (f": {detail}" if detail else "")
            )
    return "\n".join(lines)


def render_events(events: Sequence[TraceEvent], limit: int = 0) -> str:
    """One line per event (``repro trace show``); 0 = no limit.

    When ``limit`` truncates, the *tail* of the trace is shown — the
    most recent events are the ones a post-mortem needs.
    """
    shown = list(events)
    dropped = 0
    if limit and len(shown) > limit:
        dropped = len(shown) - limit
        shown = shown[-limit:]
    lines = []
    if dropped:
        lines.append(f"... {dropped} earlier events omitted (--limit)")
    for event in shown:
        category = CATEGORY_NAMES.get(event.category, str(event.category))
        detail = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(event.data.items())
        )
        lines.append(
            f"{event.cycle:>12d} {category:>8s} {event.kind:<12s} {detail}"
        )
    return "\n".join(lines) if lines else "empty trace"


__all__ = [
    "QuantumSummary",
    "render_events",
    "render_summary",
    "summarize_events",
]
