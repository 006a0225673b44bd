"""Resolved call sites and the bounded fixed-point driver.

Every interprocedural analysis here follows the same shape: compute a
per-function *summary*, let summaries flow along call edges, repeat
until nothing changes. :func:`fixed_point` bounds that iteration at
:data:`MAX_PASSES` sweeps over the function list — deep enough for any
realistic helper chain in this tree (summaries reach ``MAX_PASSES``
call-graph hops), and a hard guarantee that lint time stays linear in
project size even on pathological recursive inputs.

:class:`CallGraph` caches call-site resolution so the taint analysis
resolves each call exactly once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.lintkit.flow.project import FunctionInfo, Project

#: Fixed-point sweep bound: summaries propagate at most this many
#: call-graph hops. Raising it deepens analysis linearly in lint time.
MAX_PASSES = 4


@dataclass
class CallSite:
    """One ``ast.Call`` in a function, with its resolved callee (if any)."""

    node: ast.Call
    callee: Optional[FunctionInfo]


class CallGraph:
    """Per-function resolved call sites over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._sites: Dict[str, List[CallSite]] = {}

    def call_sites(self, info: FunctionInfo) -> List[CallSite]:
        """Every call in ``info``'s body (nested defs included), resolved."""
        cached = self._sites.get(info.ref)
        if cached is None:
            cached = [
                CallSite(node, self.project.resolve_call(node, info))
                for node in ast.walk(info.node)
                if isinstance(node, ast.Call)
            ]
            self._sites[info.ref] = cached
        return cached

    def resolve(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """Resolve one call via the per-function cache."""
        for site in self.call_sites(caller):
            if site.node is call:
                return site.callee
        return self.project.resolve_call(call, caller)


def fixed_point(
    functions: Sequence[FunctionInfo],
    update: Callable[[FunctionInfo], bool],
) -> None:
    """Run ``update`` over ``functions`` until stable or ``MAX_PASSES``.

    ``update`` recomputes one function's summary from current callee
    summaries and returns True when the summary changed. Functions are
    visited in the given (deterministic) order each sweep.
    """
    for _ in range(MAX_PASSES):
        changed = False
        for info in functions:
            if update(info):
                changed = True
        if not changed:
            return


__all__ = ["CallGraph", "CallSite", "MAX_PASSES", "fixed_point"]
