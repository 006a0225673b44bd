"""Lightweight dimension inference backing UNIT001.

The simulator mixes four quantity kinds that Python happily conflates:
*cycles* (time), *events* (counts of hits/misses/accesses), *bytes*
(capacities), and *fractions* (ratios in [0, 1] — the currency of the
slowdown model). Adding a fraction to a cycle count, or comparing hits
against a deadline, type-checks and runs; it is just wrong.

Units are inferred from names (``stall_cycles``, ``miss_frac``), from
``# lint: unit[...]`` declarations on def lines, and propagated through
a tiny algebra:

=========================  ==========================================
expression                 result
=========================  ==========================================
``X + Y``, ``X - Y``       ``X`` if units agree — mismatch otherwise
``X % Y``                  same rule as ``+``
``cycles * fraction``      ``cycles`` (either operand order)
``X * unitless``           ``X``
``X / X``                  ``fraction``
``X / fraction``           ``X``
``X / unitless``           ``X``
``X < Y`` (any compare)    mismatch when both known and different
=========================  ==========================================

Function return units flow through the call graph as summaries, so a
helper named innocuously still carries the unit of what it computes.
Unknown units are compatible with everything — the rule only speaks
when both sides are confidently known.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lintkit.flow.callgraph import CallGraph, fixed_point
from repro.lintkit.flow.project import FunctionInfo, ModuleInfo, own_statements

#: Recognized units, in documentation order.
UNITS = ("cycles", "events", "bytes", "fraction")

_NAME_UNIT_RES = (
    (
        "cycles",
        re.compile(
            r"(?:^|_)(?:cycles?|quantum|quanta|epochs?|times?|busy"
            r"|stalls?|delays?|latenc(?:y|ies))(?:$|_)"
        ),
    ),
    # Plural forms only: in this tree plural names count events
    # ("epoch_misses") while the singular modifies a time ("miss_busy",
    # "avg_hit" — the average hit *service time*).
    (
        "events",
        re.compile(r"(?:^|_)(?:hits|misses|accesses|events)(?:$|_)"),
    ),
    ("bytes", re.compile(r"(?:^|_)(?:bytes?)(?:$|_)")),
    ("fraction", re.compile(r"(?:^|_)(?:frac|fraction|ratio)(?:$|_)")),
)


def unit_of_name(name: str) -> Optional[str]:
    """The unit a variable/function name implies, if any.

    When several components match, the *latest* wins: in compound names
    the final noun is the measured quantity (``quantum_hits`` counts
    hits, ``hit_time`` measures time).
    """
    lowered = name.lower()
    best: Optional[Tuple[int, str]] = None
    for unit, pattern in _NAME_UNIT_RES:
        for match in pattern.finditer(lowered):
            if best is None or match.start() > best[0]:
                best = (match.start(), unit)
    return best[1] if best is not None else None


@dataclass
class UnitViolation:
    """Two dimensioned quantities combined incompatibly."""

    func: FunctionInfo
    node: ast.AST
    message: str


class UnitAnalysis:
    """Infer units per function; flag mismatched arithmetic/compares."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.return_units: Dict[str, Optional[str]] = {}

    def analyze(self, scan: Sequence[ModuleInfo]) -> List[UnitViolation]:
        functions = sorted(
            (f for m in scan for f in m.functions.values()),
            key=lambda f: f.ref,
        )
        fixed_point(functions, self._update)
        violations: List[UnitViolation] = []
        for info in functions:
            self._run(info, violations)
        return violations

    def _update(self, info: FunctionInfo) -> bool:
        new = self._summary(info)
        old = self.return_units.get(info.ref, "\0unset")
        self.return_units[info.ref] = new
        return new != old

    def _summary(self, info: FunctionInfo) -> Optional[str]:
        declared = info.declared_unit()
        if declared is not None:
            return declared if declared in UNITS else None
        env = self._seed_env(info)
        inferred: Optional[str] = None
        for node in own_statements(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                unit = self._infer(node.value, env, info)
                if unit is not None:
                    inferred = unit
            self._track_assign(node, env, info)
        if inferred is not None:
            return inferred
        return unit_of_name(info.name)

    # -- per-function walk ---------------------------------------------
    def _seed_env(self, info: FunctionInfo) -> Dict[str, str]:
        env: Dict[str, str] = {}
        for name in info.param_names():
            unit = unit_of_name(name)
            if unit is not None:
                env[name] = unit
        return env

    def _track_assign(
        self,
        stmt: ast.stmt,
        env: Dict[str, str],
        info: FunctionInfo,
        collect: Optional[List[UnitViolation]] = None,
    ) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        unit = self._infer(value, env, info)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            implied = unit_of_name(target.id)
            if unit is not None:
                env[target.id] = unit
                if (
                    collect is not None
                    and implied is not None
                    and implied != unit
                ):
                    collect.append(
                        UnitViolation(
                            func=info,
                            node=target,
                            message=(
                                f"'{target.id}' implies {implied} but is "
                                f"assigned a {unit} value"
                            ),
                        )
                    )
            elif implied is not None:
                env[target.id] = implied

    def _run(
        self, info: FunctionInfo, collect: List[UnitViolation]
    ) -> None:
        env = self._seed_env(info)
        for stmt in own_statements(info.node):
            # Report on this statement's direct expressions first (env
            # as of *before* any assignment the statement makes), then
            # fold the assignment into the environment.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._infer(child, env, info, collect)
            self._track_assign(stmt, env, info, collect)

    # -- inference ------------------------------------------------------
    def _infer(
        self,
        expr: ast.expr,
        env: Dict[str, str],
        info: FunctionInfo,
        collect: Optional[List[UnitViolation]] = None,
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, unit_of_name(expr.id))
        if isinstance(expr, ast.Attribute):
            return unit_of_name(expr.attr)
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Call):
            return self._call_unit(expr, env, info, collect)
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand, env, info, collect)
        if isinstance(expr, ast.IfExp):
            body = self._infer(expr.body, env, info, collect)
            orelse = self._infer(expr.orelse, env, info, collect)
            return body if body is not None else orelse
        if isinstance(expr, ast.BinOp):
            return self._binop_unit(expr, env, info, collect)
        if isinstance(expr, ast.Compare):
            if collect is not None:
                self._check_compare(expr, env, info, collect)
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self._infer(value, env, info, collect)
            return None
        return None

    def _call_unit(
        self,
        call: ast.Call,
        env: Dict[str, str],
        info: FunctionInfo,
        collect: Optional[List[UnitViolation]],
    ) -> Optional[str]:
        for arg in call.args:
            self._infer(arg, env, info, collect)
        callee = self.graph.resolve(call, info)
        if callee is not None:
            return self.return_units.get(callee.ref)
        func = call.func
        if isinstance(func, ast.Name) and func.id in {
            "abs",
            "float",
            "int",
            "max",
            "min",
            "round",
        }:
            for arg in call.args:
                unit = self._infer(arg, env, info)
                if unit is not None:
                    return unit
            return None
        if isinstance(func, ast.Name):
            return unit_of_name(func.id)
        if isinstance(func, ast.Attribute):
            return unit_of_name(func.attr)
        return None

    def _binop_unit(
        self,
        expr: ast.BinOp,
        env: Dict[str, str],
        info: FunctionInfo,
        collect: Optional[List[UnitViolation]],
    ) -> Optional[str]:
        left = self._infer(expr.left, env, info, collect)
        right = self._infer(expr.right, env, info, collect)
        op = expr.op
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if left is not None and right is not None and left != right:
                if collect is not None:
                    symbol = {"Add": "+", "Sub": "-", "Mod": "%"}[
                        type(op).__name__
                    ]
                    collect.append(
                        UnitViolation(
                            func=info,
                            node=expr,
                            message=f"{left} {symbol} {right}",
                        )
                    )
                return None
            return left if left is not None else right
        if isinstance(op, ast.Mult):
            units = {left, right} - {None}
            if units == {"cycles", "fraction"}:
                return "cycles"
            if left == right:
                return "fraction" if left == "fraction" else None
            # A unit survives multiplication only by a *literal* scalar;
            # an unknown-named operand may carry its own dimension.
            if left is not None and _is_literal(expr.right):
                return left
            if right is not None and _is_literal(expr.left):
                return right
            return None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left is not None and left == right:
                return "fraction"
            if left is not None and (
                right == "fraction" or _is_literal(expr.right)
            ):
                return left
            return None
        return None

    def _check_compare(
        self,
        expr: ast.Compare,
        env: Dict[str, str],
        info: FunctionInfo,
        collect: List[UnitViolation],
    ) -> None:
        operands = [expr.left, *expr.comparators]
        units = [self._infer(op, env, info, collect) for op in operands]
        known = [u for u in units if u is not None]
        if len(known) >= 2 and len(set(known)) > 1:
            collect.append(
                UnitViolation(
                    func=info,
                    node=expr,
                    message=" vs ".join(sorted(set(known))),
                )
            )


def _is_literal(expr: ast.expr) -> bool:
    """A numeric literal (possibly signed): dimensionless by definition."""
    if isinstance(expr, ast.UnaryOp):
        return _is_literal(expr.operand)
    return isinstance(expr, ast.Constant) and isinstance(
        expr.value, (int, float)
    )


__all__ = ["UNITS", "UnitAnalysis", "UnitViolation", "unit_of_name"]
