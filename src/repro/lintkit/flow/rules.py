"""Whole-program lint rules built on the flow analyses.

========  ============================================================
NDT001    nondeterminism taint: a wall-clock / global-RNG / ``id()`` /
          set-order value flows (possibly through several calls) into a
          campaign-store write, fingerprint, cache key or serialized
          output — the cross-function generalization of DET001
========  ============================================================

It registers alongside the per-file rules; the driver hands it the
:class:`~repro.lintkit.flow.project.Project` built from all linted
files at once.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lintkit.base import Finding, ProjectRule, register
from repro.lintkit.flow.callgraph import CallGraph
from repro.lintkit.flow.project import Project
from repro.lintkit.flow.taint import TaintAnalysis
from repro.lintkit.rules import DETERMINISM_PACKAGES

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


__all__ = [
    "NONDET_SCAN_PACKAGES",
    "Ndt001NondeterminismTaint",
]
