"""Whole-program flow analysis for the simulator-invariant linter.

The per-file rules in :mod:`repro.lintkit.rules` see one module at a
time, so any invariant violation that crosses a function boundary — a
wall-clock value returned from a helper into a persisted record, a
fraction flowing into cycle arithmetic through two calls, a worker
payload that mutates a module global three frames down — escapes them.
This package gives rules a *project* view:

* :mod:`~repro.lintkit.flow.project` — symbol table: every module,
  class and function in the linted tree, plus call resolution through
  import aliases, ``self``, and cross-module references.
* :mod:`~repro.lintkit.flow.callgraph` — resolved call sites per
  function and the bounded fixed-point driver every interprocedural
  analysis shares.
* :mod:`~repro.lintkit.flow.taint` — nondeterminism taint (NDT001):
  wall-clock / global-RNG / ``id()`` / set-iteration-order values
  tracked through calls and returns into persistence and key sinks.
* :mod:`~repro.lintkit.flow.units` — lightweight dimension inference
  (UNIT001) over cycle / event / byte / fraction quantities.
* :mod:`~repro.lintkit.flow.purity` — module-global side-effect
  analysis (PUR001) of everything reachable from parallel worker
  payloads.
* :mod:`~repro.lintkit.flow.rules` — the :class:`ProjectRule`
  subclasses wiring the analyses into the lint driver.

All analyses are deliberately *bounded*: summaries propagate through the
call graph for a fixed number of passes (:data:`~repro.lintkit.flow.
callgraph.MAX_PASSES`), nested function scopes are not descended into,
and unresolvable calls drop to "unknown" rather than guessing. The rules
err on the side of silence; declared facts (``# lint: pure``,
``# lint: unit[...]``) let code state what analysis cannot see. See ``docs/lintkit.md``.
"""

from repro.lintkit.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
)

__all__ = ["ClassInfo", "FunctionInfo", "ModuleInfo", "Project"]
