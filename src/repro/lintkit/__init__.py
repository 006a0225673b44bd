"""AST-based simulator-invariant linter (``repro-lint``).

The simulator's correctness rests on invariants the paper states but CPython
cannot enforce cheaply at runtime:

* results are **deterministic** — a parallel campaign must be bit-identical
  to a serial one (see :mod:`repro.parallel`), which a single stray
  ``random.random()``, wall-clock read, ``id()``-derived key or
  set-iteration silently breaks;
* **cycle counts are integers** — true division feeding a cycle or epoch
  counter truncates differently from ``//`` and quietly turns closed-form
  accounting identities into float drift.

Invariants that a test can hold are held there instead: counter
conservation by :mod:`repro.resilience.invariants` and ASM's
``counter-conservation`` flag, picklable cell recipes by
:class:`repro.parallel.CellSpec`, and serial == pool stores by the
byte comparisons in the test suite and CI.

``repro.lintkit`` proves the cheap half of the rest statically: a small
AST-visitor framework (:mod:`repro.lintkit.base`) hosts simulator-specific
rules (:mod:`repro.lintkit.rules`), and reports in human, JSON or SARIF
form. A finding is waived only by a ``# lint: ignore[RULE]`` comment on
its own line, so every exception sits beside the code it excuses. Run it
with ``python -m repro.lintkit src/`` or the ``repro-lint`` console
script.
"""

from repro.lintkit.base import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_text,
    register,
)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_text",
    "register",
]
