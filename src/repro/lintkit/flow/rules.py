"""Whole-program lint rules built on the flow analyses.

========  ============================================================
NDT001    nondeterminism taint: a wall-clock / global-RNG / ``id()`` /
          set-order value flows (possibly through several calls) into a
          campaign-store write, fingerprint, cache key or serialized
          output — the cross-function generalization of DET001
UNIT001   dimension inference: cycle / event / byte / fraction
          quantities combined or compared incompatibly, with units
          carried through helper returns
PUR001    parallel purity: a function dispatched as a pool worker
          payload (or reachable from one) mutates module-global state —
          per-process copies silently diverge
========  ============================================================

These register alongside the per-file rules; the driver hands them the
:class:`~repro.lintkit.flow.project.Project` built from all linted
files at once.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lintkit.base import Finding, ProjectRule, register
from repro.lintkit.flow.callgraph import CallGraph
from repro.lintkit.flow.project import Project
from repro.lintkit.flow.purity import PurityAnalysis
from repro.lintkit.flow.taint import TaintAnalysis
from repro.lintkit.flow.units import UnitAnalysis
from repro.lintkit.rules import DETERMINISM_PACKAGES, HOT_PACKAGES

#: Everything DET001 covers plus every layer that persists or keys
#: campaign state — taint may *flow* anywhere, but findings are only
#: reported in modules whose outputs feed results or durable records.
NONDET_SCAN_PACKAGES: Tuple[str, ...] = DETERMINISM_PACKAGES + (
    "repro.durability",
    "repro.experiments",
    "repro.harness",
    "repro.obs",
    "repro.parallel",
    "repro.resilience",
    "repro.telemetry",
    "repro.workloads",
)


@register
class Ndt001NondeterminismTaint(ProjectRule):
    """Nondeterministic values must not reach persisted/keyed outputs.

    DET001 flags the *source* call sites inside simulation modules; this
    rule follows the value. A ``time.monotonic()`` read is legitimate
    for a retry budget — until the elapsed time is stored into a
    durable record, hashed into a run key, or serialized next to
    results, at which point re-running the campaign produces different
    bytes and resume/verification tooling breaks.
    """

    code = "NDT001"
    summary = "nondeterministic value flows into a persistence/key sink"
    packages = NONDET_SCAN_PACKAGES

    def check_project(self, project: Project) -> Iterator[Finding]:
        scan = project.modules_matching(self.packages)
        analysis = TaintAnalysis(CallGraph(project))
        for violation in analysis.analyze(scan):
            yield self.finding(
                violation.func.ctx,
                violation.node,
                f"{violation.source} reaches {violation.sink} in "
                f"{violation.func.qualname}(); persisted/keyed bytes "
                "must be reproducible — derive this value from "
                "simulated time or config, or keep it out of durable "
                "records",
            )


@register
class Unit001DimensionMismatch(ProjectRule):
    """Cycles, events, bytes and fractions must not mix implicitly.

    The slowdown model is ratio arithmetic over cycle and event counts;
    Python will happily add a fraction to a cycle count. Units are
    inferred from names and carried through helper returns; declare a
    return unit with ``# lint: unit[cycles]`` on the def line when the
    name alone is ambiguous.
    """

    code = "UNIT001"
    summary = "incompatible units combined in quantity arithmetic"
    packages = HOT_PACKAGES

    def check_project(self, project: Project) -> Iterator[Finding]:
        scan = project.modules_matching(self.packages)
        analysis = UnitAnalysis(CallGraph(project))
        for violation in analysis.analyze(scan):
            yield self.finding(
                violation.func.ctx,
                violation.node,
                f"unit mismatch in {violation.func.qualname}(): "
                f"{violation.message}; convert explicitly or rename if "
                "the inferred unit is wrong "
                "(# lint: unit[...] declares return units)",
            )


@register
class Pur001ImpureWorkerPayload(ProjectRule):
    """Pool worker payloads must not mutate module-global state.

    Each pool process gets its own copy of module globals; a payload
    that rebinds or mutates one writes to a copy the parent never sees,
    and task-to-task visibility depends on worker reuse. Mark a function
    ``# lint: pure`` on its def line if its effects are confined (e.g.
    a per-process cache that is semantically transparent).
    """

    code = "PUR001"
    summary = "parallel worker payload mutates module-global state"

    def check_project(self, project: Project) -> Iterator[Finding]:
        scan = project.modules_matching(self.packages)
        analysis = PurityAnalysis(CallGraph(project))
        for violation in analysis.analyze(scan):
            yield self.finding(
                violation.func.ctx,
                violation.node,
                f"worker payload {violation.payload.qualname}() "
                f"{violation.effect}; module-global writes diverge "
                "across pool processes — pass state in, return results "
                "out (# lint: pure on the def asserts confinement)",
            )


__all__ = [
    "NONDET_SCAN_PACKAGES",
    "Ndt001NondeterminismTaint",
    "Pur001ImpureWorkerPayload",
    "Unit001DimensionMismatch",
]
