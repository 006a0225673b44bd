"""Simulator-specific lint rules.

Each rule protects one invariant of the ASM reproduction (see DESIGN.md,
"Static analysis", for the paper mapping):

========  ============================================================
CYC001    no true division feeding cycle/epoch/quantum counters
          (cycle arithmetic stays in integers; use ``//``)
TEL001    slowdown models read simulator counters only through their
          ``CounterBank`` accessors (raw access is legal only inside
          ``attach()``, where the externals are registered)
DOC001    public classes/functions in the observability layer and the
          model zoo carry docstrings (the documentation suite links
          into both; an undocumented symbol is a broken promise)
IO001     persistence layers never open files for writing bare: every
          durable write routes through ``repro.durability.atomic``
          (append_line / atomic_write_text / durable_stream) so a
          crash can tear at most an uncommitted trailing line
========  ============================================================

Determinism — the same seed gives the same bytes in any process — is
held by tests that run in fresh interpreters, not by a rule here (see
DESIGN.md §6).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.lintkit.base import Finding, LintContext, Rule, register
from repro.lintkit.facts import (
    ImportMap as _ImportTracker,
    has_unwrapped_true_division,
    int_wrapper_names,
)

_CYCLE_NAME_RE = re.compile(
    r"(?:^|_)(?:cycles?|quantum|quanta|epochs?)(?:$|_)"
)


def _target_names(node: ast.expr) -> Iterator[str]:
    """The identifier(s) a store target binds, through subscripts/attrs."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Subscript):
        yield from _target_names(node.value)
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _target_names(elt)
    elif isinstance(node, ast.Starred):
        yield from _target_names(node.value)


@register
class Cyc001TrueDivisionIntoCycles(Rule):
    """True division feeding a cycle/epoch/quantum counter.

    Cycle counts are integers by construction (the engine schedules at
    integer timestamps and ``Engine.schedule`` rejects nothing else
    loudly only for negatives). A ``/`` that reaches a ``*_cycles`` /
    ``quantum`` / ``epoch`` name produces a float that the paper's
    accounting identities (hits + misses == accesses scaled by cycle
    windows) then compare inexactly. Use ``//`` or wrap in ``int()``.
    """

    code = "CYC001"
    summary = "true division assigned to a cycle-typed name"
    packages = ("repro",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        imports = _ImportTracker()
        imports.visit(ctx.tree)
        wrappers = int_wrapper_names(imports)
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, ast.Div):
                    names = [
                        n
                        for n in _target_names(node.target)
                        if _CYCLE_NAME_RE.search(n)
                    ]
                    if names:
                        yield self.finding(
                            ctx,
                            node,
                            f"`{names[0]} /= ...` makes a cycle counter "
                            "fractional; use //= or int()",
                        )
                    continue
                targets, value = [node.target], node.value
            else:
                continue
            tainted = [
                name
                for target in targets
                for name in _target_names(target)
                if _CYCLE_NAME_RE.search(name)
            ]
            if not tainted or value is None:
                continue
            div = has_unwrapped_true_division(value, wrappers)
            if div is not None:
                yield self.finding(
                    ctx,
                    div,
                    f"true division feeds cycle-typed name "
                    f"`{tainted[0]}`; cycle/epoch/quantum counts are "
                    "integers — use // or wrap in int()",
                )


# ----------------------------------------------------------------------

#: Simulator-owned counters a slowdown model may only touch inside
#: ``attach()`` — where it registers them as guarded
#: :class:`repro.telemetry.counters.CounterBank` externals. Everywhere
#: else models must read through ``CounterVec.read`` /
#: ``ExternalSample.read``/``delta`` so telemetry faults and invariant
#: guards see every sample.
RAW_COUNTER_ATTRS = frozenset(
    {
        "queueing_cycles",
        "interference_cycles",
        "demand_hits",
        "demand_misses",
        "secondary_misses",
        "busy_cycles",
        "latency_count",
        "alone_latency_sum",
    }
)

#: Model-package modules that legitimately own raw counters: the shared
#: accounting helpers, not estimators themselves.
_TEL001_EXEMPT_MODULES = frozenset(
    {"repro.models.base", "repro.models.perrequest"}
)


class _RawCounterVisitor(ast.NodeVisitor):
    """Collect raw-counter attribute uses outside any ``attach`` scope."""

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.sites: List[ast.Attribute] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in RAW_COUNTER_ATTRS and "attach" not in self.stack:
            self.sites.append(node)
        self.generic_visit(node)


@register
class Tel001RawCounterRead(Rule):
    """Models read simulator counters only through the guarded bank.

    A slowdown model may touch raw simulator counters (controller
    queueing cycles, per-request interference cycles, hierarchy demand
    counters, tracker busy cycles) only inside ``attach()``, where they
    are wrapped as :class:`~repro.telemetry.counters.CounterBank`
    externals (typically as reader lambdas). Any other access bypasses
    the telemetry fault injectors *and* the estimate guards — the model
    would keep trusting a counter the fault campaign corrupts.
    """

    code = "TEL001"
    summary = "model reads a simulator counter outside CounterBank accessors"
    packages = ("repro.models", "repro.cloud")

    def applies_to(self, module: str) -> bool:
        if module in _TEL001_EXEMPT_MODULES:
            return False
        return super().applies_to(module)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        visitor = _RawCounterVisitor()
        visitor.visit(ctx.tree)
        for node in visitor.sites:
            yield self.finding(
                ctx,
                node,
                f"raw simulator counter `{node.attr}` accessed outside "
                "`attach()`: register it as a CounterBank external there "
                "and read it through the bank (`.read(core)` / "
                "`.delta(core)`) so telemetry faults and estimate guards "
                "see the sample",
            )


@register
class Doc001MissingDocstring(Rule):
    """Public API of the documented packages carries docstrings.

    ``docs/models.md`` and ``docs/architecture.md`` link into
    ``repro.models`` and ``repro.obs`` by symbol name; an undocumented
    public class or function there is a hole in the documentation suite.
    Names starting with ``_`` (including dunders) are exempt, as are
    members of private classes and functions nested inside other
    functions.
    """

    code = "DOC001"
    summary = "public class/function lacks a docstring"
    severity = "warning"
    packages = ("repro.obs", "repro.models", "repro.analytic")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._check_body(ctx, ctx.tree.body, private_scope=False)

    def _check_body(
        self, ctx: LintContext, body: List[ast.stmt], private_scope: bool
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                private = private_scope or node.name.startswith("_")
                if not private and ast.get_docstring(node) is None:
                    yield self.finding(
                        ctx,
                        node,
                        f"public class `{node.name}` has no docstring; "
                        "the docs suite links into this package by symbol",
                    )
                yield from self._check_body(ctx, node.body, private)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Private names and dunders both start with "_"; nested
                # functions are never visited (we only descend classes).
                if private_scope or node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    yield self.finding(
                        ctx,
                        node,
                        f"public function `{node.name}` has no docstring; "
                        "the docs suite links into this package by symbol",
                    )


# ----------------------------------------------------------------------

#: Packages whose files persist campaign / trace state across crashes.
PERSISTENCE_PACKAGES: Tuple[str, ...] = (
    "repro.durability",
    "repro.obs",
    "repro.parallel",
    "repro.resilience",
    "repro.cloud",
)

#: The atomic-write helper itself must call ``open()`` — it *is* the
#: sanctioned wrapper the rule directs everyone else to.
_IO001_EXEMPT_MODULES = frozenset({"repro.durability.atomic"})

#: ``open()`` mode characters that make the handle writable.
_WRITE_MODE_CHARS = frozenset("wax+")


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of a writable ``open()`` call, else None.

    Only string-literal modes are decidable statically; a computed mode
    is ignored rather than guessed at. The default mode is ``"r"``, so a
    call with no mode argument is read-only and clean.
    """
    func = node.func
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return None
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return None
    if _WRITE_MODE_CHARS & set(mode.value):
        return mode.value
    return None


@register
class Io001BarePersistenceWrite(Rule):
    """Bare writable ``open()`` in a persistence layer.

    The durability contract (DESIGN.md, "Durability & supervision") is
    that campaign state survives ``kill -9`` with at most a torn,
    uncommitted trailing line. A bare ``open(path, "w")`` breaks it
    twice: truncate-then-write destroys the old contents before the new
    ones are durable, and without an fsync the "written" bytes may still
    be lost afterwards. Every durable write must route through
    :mod:`repro.durability.atomic` — ``append_line`` for checksummed
    appends, ``atomic_write_text`` for whole-file snapshots,
    ``durable_stream`` for bulk streams — which the chaos harness can
    also fault-inject. ``Path.write_text()`` is the same truncating
    write in disguise and is flagged too.
    """

    code = "IO001"
    summary = "bare write-mode open() in a persistence layer"
    packages = PERSISTENCE_PACKAGES

    def applies_to(self, module: str) -> bool:
        if module in _IO001_EXEMPT_MODULES:
            return False
        return super().applies_to(module)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = _open_write_mode(node)
            if mode is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"bare open(..., {mode!r}) in a persistence layer is "
                    "not crash-consistent; route the write through "
                    "repro.durability.atomic (append_line / "
                    "atomic_write_text / durable_stream)",
                )
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "write_text":
                yield self.finding(
                    ctx,
                    node,
                    ".write_text() truncates in place with no fsync; use "
                    "repro.durability.atomic.atomic_write_text so the old "
                    "contents survive a crash mid-write",
                )

__all__ = [
    "Cyc001TrueDivisionIntoCycles",
    "Doc001MissingDocstring",
    "Io001BarePersistenceWrite",
    "PERSISTENCE_PACKAGES",
    "RAW_COUNTER_ATTRS",
    "Tel001RawCounterRead",
]
