"""Worker-payload purity analysis backing PUR001.

Process pools copy module state at fork/spawn time; a worker that
mutates a module-level global mutates *its own copy*, silently — the
parent never sees the write, and whether two tasks see each other's
writes depends on pool reuse. Any module-global side effect reachable
from a parallel worker payload is therefore a cross-process
consistency bug waiting for a scheduler change.

The analysis computes, per function, the set of *effects* — module
globals rebound (``global X`` + assignment) or mutated in place
(``CACHE[k] = v``, ``REGISTRY.append(...)``) — including effects of
resolvable callees, bounded by the shared fixed point. It then finds
*payloads*: function references passed to ``submit``/``map``/
``starmap``/``apply_async`` or as ``model_builder`` recipe kwargs.
Payload positions propagate through the call graph, so a dispatcher like
``run_cells -> _run_tasks(fn, ...) -> pool.submit(fn)`` marks
``run_cells``'s argument as a payload too.

``# lint: pure`` on a def line asserts the function (and what it calls)
has no module-global effects; the analysis trusts it and stops there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lintkit.facts import RECIPE_KWARGS, SUBMIT_ATTRS, attribute_chain
from repro.lintkit.flow.callgraph import CallGraph, fixed_point
from repro.lintkit.flow.project import (
    FunctionInfo,
    ModuleInfo,
    param_offset,
)

#: In-place mutator methods on containers. A call ``G.append(...)`` on a
#: module global G is an effect even though nothing is assigned.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)


@dataclass(frozen=True)
class PuritySummary:
    """Effects of calling a function, plus payload-forwarding params."""

    effects: Tuple[str, ...] = ()
    #: parameter indices this function hands to a pool/recipe sink.
    submit_params: Tuple[int, ...] = ()


@dataclass
class PurityViolation:
    """An impure function dispatched as a parallel worker payload."""

    func: FunctionInfo
    node: ast.AST
    payload: FunctionInfo
    effect: str


class PurityAnalysis:
    """Effect summaries + payload discovery over the call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, PuritySummary] = {}

    def analyze(self, scan: Sequence[ModuleInfo]) -> List[PurityViolation]:
        functions = sorted(
            (f for m in scan for f in m.functions.values()),
            key=lambda f: f.ref,
        )
        fixed_point(functions, self._update)
        violations: List[PurityViolation] = []
        seen: Set[Tuple[str, int, str]] = set()
        for info in functions:
            for node, payload in self._payloads(info):
                summary = self.summaries.get(payload.ref)
                if summary is None or not summary.effects:
                    continue
                key = (
                    info.ctx.path,
                    getattr(node, "lineno", 0),
                    payload.ref,
                )
                if key in seen:
                    continue
                seen.add(key)
                violations.append(
                    PurityViolation(
                        func=info,
                        node=node,
                        payload=payload,
                        effect=summary.effects[0],
                    )
                )
        return violations

    def _update(self, info: FunctionInfo) -> bool:
        new = self._summarize(info)
        old = self.summaries.get(info.ref)
        self.summaries[info.ref] = new
        return new != old

    # -- effect summaries ----------------------------------------------
    def _summarize(self, info: FunctionInfo) -> PuritySummary:
        if info.declared_pure():
            return PuritySummary()
        module = self.graph.project.modules.get(info.module)
        if module is None:
            return PuritySummary()
        effects: Set[str] = set()
        declared_global, local_names = _scopes(info)
        mutable_roots = (
            (module.global_names | set(module.imports.members))
            - local_names
        ) | declared_global

        for stmt in _own_statements(info.node):
            for target, aug in _store_targets(stmt):
                if isinstance(target, ast.Name):
                    if target.id in declared_global or (
                        aug and target.id in mutable_roots
                        and target.id not in local_names
                    ):
                        effects.add(
                            f"rebinds module global '{target.id}'"
                        )
                else:
                    root = _root_name(target)
                    if root is not None and root in mutable_roots:
                        effects.add(
                            f"mutates module global '{root}' in place"
                        )
            for call in _own_calls(stmt):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                ):
                    root = _root_name(func.value)
                    if root is not None and root in mutable_roots:
                        effects.add(
                            f"mutates module global '{root}' via "
                            f".{func.attr}()"
                        )
                callee = self.graph.resolve(call, info)
                if callee is not None and callee.ref != info.ref:
                    inherited = self.summaries.get(callee.ref)
                    if inherited is not None:
                        for effect in inherited.effects:
                            effects.add(
                                f"{_base_effect(effect)} via "
                                f"{callee.name}()"
                            )
        submit_params = self._submit_params(info)
        return PuritySummary(
            effects=tuple(sorted(effects)),
            submit_params=submit_params,
        )

    def _submit_params(self, info: FunctionInfo) -> Tuple[int, ...]:
        params = info.param_names()
        out: Set[int] = set()
        for node, payload_expr in self._payload_exprs(info):
            if isinstance(payload_expr, ast.Name) and (
                payload_expr.id in params
            ):
                out.add(params.index(payload_expr.id))
        return tuple(sorted(out))

    # -- payload discovery ---------------------------------------------
    def _payload_exprs(
        self, info: FunctionInfo
    ) -> List[Tuple[ast.Call, ast.expr]]:
        """(call site, expression dispatched to a worker) pairs."""
        out: List[Tuple[ast.Call, ast.expr]] = []
        for site in self.graph.call_sites(info):
            call = site.node
            func = call.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if (
                isinstance(func, ast.Attribute)
                and name in SUBMIT_ATTRS
                and call.args
            ):
                out.append((call, call.args[0]))
            for kw in call.keywords:
                if kw.arg in RECIPE_KWARGS:
                    out.append((call, kw.value))
            callee = site.callee
            if callee is not None and callee.ref != info.ref:
                summary = self.summaries.get(callee.ref)
                if summary is None or not summary.submit_params:
                    continue
                offset = param_offset(call, callee)
                callee_params = callee.param_names()
                for index in summary.submit_params:
                    apos = index - offset
                    if 0 <= apos < len(call.args):
                        out.append((call, call.args[apos]))
                        continue
                    for kw in call.keywords:
                        if (
                            kw.arg is not None
                            and kw.arg in callee_params
                            and callee_params.index(kw.arg) == index
                        ):
                            out.append((call, kw.value))
        return out

    def _payloads(
        self, info: FunctionInfo
    ) -> List[Tuple[ast.Call, FunctionInfo]]:
        out: List[Tuple[ast.Call, FunctionInfo]] = []
        for node, expr in self._payload_exprs(info):
            payload = self._resolve_ref(expr, info)
            if payload is not None:
                out.append((node, payload))
        return out

    def _resolve_ref(
        self, expr: ast.expr, info: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """A function *reference* (not call) to its FunctionInfo."""
        project = self.graph.project
        module = project.modules.get(info.module)
        if module is None:
            return None
        if isinstance(expr, ast.Name):
            local = module.functions.get(expr.id)
            if local is not None and local.class_name is None:
                return local
            member = info.imports.members.get(expr.id)
            if member is not None:
                return project.functions.get(f"{member[0]}.{member[1]}")
            return None
        chain = attribute_chain(expr)
        if chain is None or len(chain) < 2:
            return None
        root, rest = chain[0], chain[1:]
        mod = info.imports.modules.get(root)
        if mod is not None:
            return project.functions.get(".".join([mod, *rest]))
        member = info.imports.members.get(root)
        if member is not None:
            return project.functions.get(
                ".".join([member[0], member[1], *rest])
            )
        if root in module.classes and len(rest) == 1:
            return module.functions.get(f"{root}.{rest[0]}")
        return None


def _base_effect(effect: str) -> str:
    return effect.split(" via ")[0]


def _scopes(info: FunctionInfo) -> Tuple[Set[str], Set[str]]:
    """(names declared ``global``, local names that shadow globals)."""
    declared: Set[str] = set()
    local: Set[str] = set(info.param_names())
    args = info.node.args
    local.update(a.arg for a in args.kwonlyargs)
    if args.vararg is not None:
        local.add(args.vararg.arg)
    if args.kwarg is not None:
        local.add(args.kwarg.arg)
    for stmt in _own_statements(info.node):
        if isinstance(stmt, ast.Global):
            declared.update(stmt.names)
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                local.add(node.id)
    local -= declared
    return declared, local


def _store_targets(stmt: ast.stmt) -> List[Tuple[ast.expr, bool]]:
    """(assignment target, is-augmented) pairs for one statement."""
    if isinstance(stmt, ast.Assign):
        return [(t, False) for t in stmt.targets]
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [(stmt.target, False)]
    if isinstance(stmt, ast.AugAssign):
        return [(stmt.target, True)]
    if isinstance(stmt, ast.Delete):
        return [(t, True) for t in stmt.targets]
    return []


def _root_name(expr: ast.expr) -> Optional[str]:
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_statements(node: ast.AST) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    stack: List[ast.stmt] = list(getattr(node, "body", []))
    while stack:
        stmt = stack.pop(0)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        out.append(stmt)
        for attr in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, attr, []))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(handler.body)
    return out


def _own_calls(stmt: ast.stmt) -> List[ast.Call]:
    calls: List[ast.Call] = []
    for expr in ast.iter_child_nodes(stmt):
        if isinstance(expr, ast.expr):
            calls.extend(
                n for n in ast.walk(expr) if isinstance(n, ast.Call)
            )
    return calls


__all__ = [
    "PurityAnalysis",
    "PuritySummary",
    "PurityViolation",
]
