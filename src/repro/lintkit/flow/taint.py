"""Nondeterminism taint analysis backing NDT001.

Tracks values born from wall clocks, the module-global RNG, entropy
sources, ``id()``/``hash()`` and set-iteration order through
assignments, calls and returns, and reports when one reaches a
*persistence or key sink* — a campaign-store write, a fingerprint/key
helper, ``json``/``pickle`` serialization, or a ``hashlib`` digest.

The analysis is interprocedural via per-function summaries:

* ``returns`` — calling the function yields a tainted value (and why);
* ``param_returns`` — parameters whose values flow into the return
  value (constructors and wrappers forward taint through these);
* ``param_sinks`` — parameters that reach a sink inside the function
  (or inside one of its callees, bounded by the fixed-point depth).

Within a function the walk is statement-ordered and accumulate-only:
branches merge by union, loops are scanned once, attribute/subscript
stores are not tracked. Parameters are seeded with ``[param:i]`` markers
so dependence on inputs and dependence on real sources share one
mechanism. ``sorted()``/``min()``/``sum()``-style consumers clear
*set-order* taint (order no longer matters) but never value taint —
``int(time.time())`` is still a wall-clock value.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lintkit.facts import call_target, describe_setish, nondet_call
from repro.lintkit.flow.callgraph import CallGraph, fixed_point
from repro.lintkit.flow.project import FunctionInfo, ModuleInfo, param_offset

#: Bare/attribute call names that persist or key campaign state. These
#: are matched by *name* so wrappers and methods count: the campaign
#: store writers, the durable-write helpers, and the fingerprint/key
#: derivation helpers.
SINK_NAMES: FrozenSet[str] = frozenset(
    {
        "append_failure",
        "append_line",
        "atomic_write_text",
        "cache_key",
        "config_fingerprint",
        "failure_signature",
        "put_alone",
        "put_metrics",
        "put_run",
        "run_key",
        "stable_hash",
    }
)

#: Import-resolved (root module, member) sinks: serialization and
#: digests. A nondeterministic value reaching these ends up in a file,
#: a fingerprint, or a checksum.
SINK_TARGETS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("hashlib", "md5"),
        ("hashlib", "new"),
        ("hashlib", "sha1"),
        ("hashlib", "sha256"),
        ("json", "dump"),
        ("json", "dumps"),
        ("pickle", "dump"),
        ("pickle", "dumps"),
    }
)

#: Builtins whose result is order-insensitive in their iterable input:
#: they clear set-order taint (and, being aggregations over content,
#: value taint of the *ordering* kind only).
_ORDER_SANITIZERS = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)
#: Builtins that materialize iteration order into a sequence.
_ORDER_MATERIALIZERS = frozenset({"iter", "list", "tuple"})
#: Builtins that preserve the taint of their argument value.
_VALUE_PRESERVING = frozenset(
    {"abs", "bool", "bytes", "float", "format", "int", "repr", "round", "str"}
)

_PARAM_MARKER_RE = re.compile(r"\[param:(\d+)\]")
_SET_ORDER_TAG = "[set-order]"


def _is_param_marker(desc: str) -> bool:
    """Whether ``desc`` carries only parameter dependence, no real source."""
    return _PARAM_MARKER_RE.sub("", desc).strip() == ""


def _param_indices(desc: str) -> List[int]:
    return [int(m) for m in _PARAM_MARKER_RE.findall(desc)]


def _base_desc(desc: str) -> str:
    """Strip the ``via`` chain so summaries stay bounded across passes."""
    return desc.split(" via ")[0]


@dataclass(frozen=True)
class TaintSummary:
    """What callers need to know about one function."""

    returns: Optional[str] = None
    param_returns: Tuple[int, ...] = ()
    param_sinks: Tuple[Tuple[int, str], ...] = ()


@dataclass
class TaintViolation:
    """A nondeterministic value reaching a persistence/key sink."""

    func: FunctionInfo
    node: ast.AST
    source: str
    sink: str


@dataclass
class _FnState:
    info: FunctionInfo
    params: List[str]
    env: Dict[str, str] = field(default_factory=dict)
    returns: Optional[str] = None
    param_returns: Set[int] = field(default_factory=set)
    param_sinks: Dict[int, str] = field(default_factory=dict)


class TaintAnalysis:
    """Two-phase driver: summary fixed point, then violation collection."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, TaintSummary] = {}

    def analyze(self, scan: Sequence[ModuleInfo]) -> List[TaintViolation]:
        functions = sorted(
            (f for m in scan for f in m.functions.values()),
            key=lambda f: f.ref,
        )
        fixed_point(functions, self._update)
        violations: List[TaintViolation] = []
        for info in functions:
            self._run(info, violations)
        unique: Dict[Tuple[str, int, int, str, str], TaintViolation] = {}
        for violation in violations:
            key = (
                violation.func.ctx.path,
                getattr(violation.node, "lineno", 0),
                getattr(violation.node, "col_offset", 0),
                violation.source,
                violation.sink,
            )
            unique.setdefault(key, violation)
        return list(unique.values())

    def _update(self, info: FunctionInfo) -> bool:
        new = self._run(info, None)
        old = self.summaries.get(info.ref)
        self.summaries[info.ref] = new
        return new != old

    # -- per-function walk ---------------------------------------------
    def _run(
        self, info: FunctionInfo, collect: Optional[List[TaintViolation]]
    ) -> TaintSummary:
        params = info.param_names()
        st = _FnState(info=info, params=params)
        for index, name in enumerate(params):
            st.env[name] = f"[param:{index}]"
        self._stmts(info.node.body, st, collect)
        return TaintSummary(
            returns=st.returns,
            param_returns=tuple(sorted(st.param_returns)),
            param_sinks=tuple(sorted(st.param_sinks.items())),
        )

    def _stmts(
        self,
        stmts: Sequence[ast.stmt],
        st: _FnState,
        collect: Optional[List[TaintViolation]],
    ) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes are out of the bounded walk
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    self._check_sinks(expr, st, collect)
            if isinstance(stmt, ast.Assign):
                taint = self._expr(stmt.value, st)
                for target in stmt.targets:
                    self._bind(target, taint, st)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self._expr(stmt.value, st), st)
            elif isinstance(stmt, ast.AugAssign):
                taint = self._expr(stmt.value, st)
                if taint is None and isinstance(stmt.target, ast.Name):
                    taint = st.env.get(stmt.target.id)
                if taint is not None:
                    self._bind(stmt.target, taint, st)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                taint = self._expr(stmt.value, st)
                if taint is not None:
                    if _is_param_marker(taint):
                        st.param_returns.update(_param_indices(taint))
                    elif st.returns is None:
                        st.returns = _base_desc(taint)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind(stmt.target, self._iter_taint(stmt.iter, st), st)
                self._stmts(stmt.body, st, collect)
                self._stmts(stmt.orelse, st, collect)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._stmts(stmt.body, st, collect)
                self._stmts(stmt.orelse, st, collect)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind(
                            item.optional_vars,
                            self._expr(item.context_expr, st),
                            st,
                        )
                self._stmts(stmt.body, st, collect)
            elif isinstance(stmt, ast.Try):
                self._stmts(stmt.body, st, collect)
                for handler in stmt.handlers:
                    self._stmts(handler.body, st, collect)
                self._stmts(stmt.orelse, st, collect)
                self._stmts(stmt.finalbody, st, collect)

    def _bind(
        self, target: ast.expr, taint: Optional[str], st: _FnState
    ) -> None:
        if isinstance(target, ast.Name):
            if taint is None:
                st.env.pop(target.id, None)
            else:
                st.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, st)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, st)
        # attribute/subscript stores are not tracked (bounded analysis)

    # -- expression taint ----------------------------------------------
    def _expr(self, expr: ast.expr, st: _FnState) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return st.env.get(expr.id)
        if isinstance(expr, ast.Call):
            return self._call(expr, st)
        if isinstance(expr, ast.Lambda):
            return None
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in expr.generators:
                taint = self._iter_taint(gen.iter, st)
                if taint is not None and not isinstance(expr, ast.SetComp):
                    return taint
            return None
        # Compound expression (tuple/dict/binop/...): a real source in
        # any operand wins; otherwise union the parameter markers so a
        # marker in one slot cannot shadow a source in the next.
        marker_indices: Set[int] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                taint = self._expr(child, st)
                if taint is None:
                    continue
                if _is_param_marker(taint):
                    marker_indices.update(_param_indices(taint))
                else:
                    return taint
        if marker_indices:
            return "".join(f"[param:{i}]" for i in sorted(marker_indices))
        return None

    def _iter_taint(self, expr: ast.expr, st: _FnState) -> Optional[str]:
        setish = describe_setish(expr)
        if setish is not None:
            return f"iteration order of {setish} {_SET_ORDER_TAG}"
        return self._expr(expr, st)

    def _call(self, call: ast.Call, st: _FnState) -> Optional[str]:
        hit = nondet_call(call, st.info.imports)
        if hit is not None:
            kind, desc = hit
            return f"{desc} [{kind}]"
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        arg_taints = [self._expr(arg, st) for arg in call.args]
        kw_taints = [self._expr(kw.value, st) for kw in call.keywords]
        if isinstance(func, ast.Name) and name in _ORDER_SANITIZERS:
            for taint in (*arg_taints, *kw_taints):
                if taint is not None and _SET_ORDER_TAG not in taint:
                    return taint
            return None
        if (
            isinstance(func, ast.Name)
            and name in _ORDER_MATERIALIZERS
            and call.args
        ):
            setish = describe_setish(call.args[0])
            if setish is not None:
                return f"iteration order of {setish} {_SET_ORDER_TAG}"
            return arg_taints[0]
        if isinstance(func, ast.Attribute) and name == "pop":
            setish = describe_setish(func.value)
            if setish is not None:
                return f".pop() from {setish} {_SET_ORDER_TAG}"
        callee = self.graph.resolve(call, st.info)
        if callee is not None:
            summary = self.summaries.get(callee.ref)
            if summary is None:
                return None
            if summary.returns is not None:
                return f"{summary.returns} via {callee.name}()"
            reals: List[str] = []
            markers: List[str] = []
            for pos, taint in self._mapped_args(call, callee, arg_taints, kw_taints):
                if pos in summary.param_returns and taint is not None:
                    if _is_param_marker(taint):
                        markers.append(taint)
                    else:
                        reals.append(taint)
            if reals:
                return f"{_base_desc(reals[0])} via {callee.name}()"
            if markers:
                indices = sorted(
                    {i for text in markers for i in _param_indices(text)}
                )
                return "".join(f"[param:{i}]" for i in indices)
            return None
        if isinstance(func, ast.Name) and name in _VALUE_PRESERVING:
            for taint in arg_taints:
                if taint is not None:
                    return taint
            return None
        if isinstance(func, ast.Attribute):
            receiver = self._expr(func.value, st)
            if receiver is not None:
                return receiver
        # Unresolved call: conservatively forward argument taint — the
        # result of f(x) is a function of x. A real source wins; absent
        # one, parameter markers from *all* arguments are unioned so a
        # constructor like RunFailure(mix_name=name, attempts=n)
        # forwards dependence on every input, not just the first.
        marker_indices: Set[int] = set()
        for taint in (*arg_taints, *kw_taints):
            if taint is None:
                continue
            if _is_param_marker(taint):
                marker_indices.update(_param_indices(taint))
            else:
                return taint
        if marker_indices:
            return "".join(
                f"[param:{i}]" for i in sorted(marker_indices)
            )
        return None

    # -- sinks ----------------------------------------------------------
    def _mapped_args(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        arg_taints: Sequence[Optional[str]],
        kw_taints: Sequence[Optional[str]],
    ) -> List[Tuple[int, Optional[str]]]:
        """(callee param index, taint) for each mappable argument."""
        offset = param_offset(call, callee)
        params = callee.param_names()
        out: List[Tuple[int, Optional[str]]] = []
        for pos, taint in enumerate(arg_taints):
            out.append((pos + offset, taint))
        for kw, taint in zip(call.keywords, kw_taints):
            if kw.arg is not None and kw.arg in params:
                out.append((params.index(kw.arg), taint))
        return out

    def _sink_of(self, call: ast.Call, info: FunctionInfo) -> Optional[str]:
        target = call_target(call, info.imports)
        if target is not None:
            root = target[0].split(".")[0]
            if (root, target[1]) in SINK_TARGETS:
                return f"{root}.{target[1]}()"
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if name in SINK_NAMES:
            return f"{name}()"
        return None

    def _check_sinks(
        self,
        expr: ast.expr,
        st: _FnState,
        collect: Optional[List[TaintViolation]],
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_of(node, st.info)
            if sink is not None:
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    self._record(arg, self._expr(arg, st), sink, st, collect)
            callee = self.graph.resolve(node, st.info)
            if callee is None:
                continue
            summary = self.summaries.get(callee.ref)
            if summary is None or not summary.param_sinks:
                continue
            sinks = dict(summary.param_sinks)
            arg_taints = [self._expr(arg, st) for arg in node.args]
            kw_taints = [self._expr(kw.value, st) for kw in node.keywords]
            for pos, taint in self._mapped_args(
                node, callee, arg_taints, kw_taints
            ):
                inner = sinks.get(pos)
                if inner is None:
                    continue
                via = f"{_base_desc(inner)} via {callee.name}()"
                arg_node = self._arg_node(node, callee, pos)
                self._record(arg_node, taint, via, st, collect)

    def _arg_node(
        self, call: ast.Call, callee: FunctionInfo, pos: int
    ) -> ast.expr:
        offset = param_offset(call, callee)
        apos = pos - offset
        if 0 <= apos < len(call.args):
            return call.args[apos]
        params = callee.param_names()
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params and (
                params.index(kw.arg) == pos
            ):
                return kw.value
        return call

    def _record(
        self,
        node: ast.expr,
        taint: Optional[str],
        sink: str,
        st: _FnState,
        collect: Optional[List[TaintViolation]],
    ) -> None:
        if taint is None:
            return
        if _is_param_marker(taint):
            for index in _param_indices(taint):
                st.param_sinks.setdefault(index, _base_desc(sink))
            return
        if collect is not None:
            collect.append(
                TaintViolation(
                    func=st.info, node=node, source=taint, sink=sink
                )
            )


__all__ = [
    "SINK_NAMES",
    "SINK_TARGETS",
    "TaintAnalysis",
    "TaintSummary",
    "TaintViolation",
]
