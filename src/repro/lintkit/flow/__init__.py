"""Whole-program flow analysis for the simulator-invariant linter.

The per-file rules in :mod:`repro.lintkit.rules` see one module at a
time, so an invariant violation that crosses a function boundary — a
wall-clock value returned from a helper into a persisted record —
escapes them. This package gives rules a *project* view:

* :mod:`~repro.lintkit.flow.project` — symbol table: every module and
  function in the linted tree, plus call resolution through import
  aliases, ``self``, and cross-module references.
* :mod:`~repro.lintkit.flow.callgraph` — resolved call sites per
  function and the bounded fixed-point driver every interprocedural
  analysis shares.
* :mod:`~repro.lintkit.flow.taint` — nondeterminism taint (NDT001):
  wall-clock / global-RNG / ``id()`` / set-iteration-order values
  tracked through calls and returns into persistence and key sinks.
* :mod:`~repro.lintkit.flow.rules` — the :class:`ProjectRule`
  wiring the analysis into the lint driver.

The analysis is deliberately *bounded*: summaries propagate through the
call graph for a fixed number of passes (:data:`~repro.lintkit.flow.
callgraph.MAX_PASSES`), nested function scopes are not descended into,
and unresolvable calls drop to "unknown" rather than guessing. The rule
errs on the side of silence. See ``docs/lintkit.md``.
"""

from repro.lintkit.flow.project import FunctionInfo, ModuleInfo, Project

__all__ = ["FunctionInfo", "ModuleInfo", "Project"]
