"""AST-based simulator-invariant linter (``repro-lint``).

The simulator's correctness rests on invariants the paper states but CPython
cannot enforce cheaply at runtime. ``repro.lintkit`` proves the cheap ones
statically:

* **cycle counts are integers** — true division feeding a cycle or epoch
  counter truncates differently from ``//`` and quietly turns closed-form
  accounting identities into float drift;
* slowdown models read simulator counters only through their guarded
  ``CounterBank``, so telemetry faults and estimate guards see every read;
* persistence layers write only through :mod:`repro.durability.atomic`;
* the documented packages keep their public docstrings.

Invariants that a test can hold are held there instead: determinism
(the same seed gives the same bytes in a fresh interpreter, serial ==
pool, a SIGKILLed campaign resumes bit-identically) by the spawned-pool,
SIGKILL and Python-version tests and the pinned benchmark digests,
counter conservation by :mod:`repro.resilience.invariants` and ASM's
``counter-conservation`` flag, and picklable cell recipes by
:class:`repro.parallel.CellSpec`.

A small AST-visitor framework (:mod:`repro.lintkit.base`) hosts the
rules (:mod:`repro.lintkit.rules`) and reports in human, JSON or SARIF
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
