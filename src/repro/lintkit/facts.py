"""Shared static facts: import resolution, nondeterminism sources, units.

The per-file rules (:mod:`repro.lintkit.rules`) and the whole-program flow
layer (:mod:`repro.lintkit.flow`) agree on what counts as a
nondeterministic value source, how to resolve a call through import
aliases, which wrappers restore integer-ness to a division, and which
call sites hand a function to a worker pool. Those facts live here so
the two layers cannot drift apart.

Import resolution handles the aliased forms the original per-file rules
missed: nested attribute chains (``import datetime as dtm;
dtm.datetime.now()``) and aliased member imports of the integer wrappers
(``from math import floor as fl``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple

#: time-module attributes that read a wall clock. ``monotonic`` is
#: included: even watchdog uses must be explicitly acknowledged with a
#: suppression so a reviewer sees every wall-clock read in the hot path.
WALL_CLOCK_ATTRS: FrozenSet[str] = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "clock_gettime",
    }
)
DATETIME_ATTRS: FrozenSet[str] = frozenset({"now", "utcnow", "today"})
#: The only constructors allowed on the ``random`` module: explicitly
#: seeded generator instances.
RANDOM_ALLOWED: FrozenSet[str] = frozenset({"Random"})
BANNED_BUILTINS: FrozenSet[str] = frozenset({"id", "hash"})

#: Executor/pool methods that take a function to run in a worker.
SUBMIT_ATTRS: FrozenSet[str] = frozenset(
    {"apply_async", "map", "starmap", "submit"}
)
#: Recipe kwargs whose values execute inside workers (see repro.parallel).
RECIPE_KWARGS: FrozenSet[str] = frozenset({"model_builder"})

#: Wrapping a division in one of these restores integer-ness.
INT_WRAPPERS: FrozenSet[str] = frozenset({"int", "round", "floor", "ceil", "trunc"})
#: Modules whose members the int wrappers may be imported from.
_INT_WRAPPER_MODULES: FrozenSet[str] = frozenset({"math", "builtins"})


class ImportMap(ast.NodeVisitor):
    """Map local names to the modules / module members they alias."""

    def __init__(self) -> None:
        #: local alias -> module dotted name ("import time as _t")
        self.modules: Dict[str, str] = {}
        #: local name -> (module, member) ("from random import randint")
        self.members: Dict[str, Tuple[str, str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.members[alias.asname or alias.name] = (node.module, alias.name)


def attribute_chain(node: ast.expr) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]``; None if not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def call_target(
    node: ast.Call, imports: ImportMap
) -> Optional[Tuple[str, str]]:
    """Resolve a call to (module, member) through the import aliases.

    ``random.randint(...)`` -> ("random", "randint"); with ``from time
    import time as now``, ``now()`` -> ("time", "time"); with ``import
    datetime as dtm``, ``dtm.datetime.now()`` -> ("datetime.datetime",
    "now") — the nested chain the original per-file resolver missed.
    Unresolvable calls return None.
    """
    func = node.func
    if isinstance(func, ast.Attribute):
        chain = attribute_chain(func)
        if chain is None or len(chain) < 2:
            return None
        root, *rest = chain
        module = imports.modules.get(root)
        if module is not None:
            # import m [as root]; root.x(...) / root.sub.x(...)
            return ".".join([module, *rest[:-1]]), rest[-1]
        member = imports.members.get(root)
        if member is not None:
            # from m import x [as root]; root.y(...) / root.y.z(...)
            return ".".join([member[0], member[1], *rest[:-1]]), rest[-1]
        return None
    if isinstance(func, ast.Name):
        member = imports.members.get(func.id)
        if member is not None:
            return member
    return None


def nondet_call(
    node: ast.Call, imports: ImportMap
) -> Optional[Tuple[str, str]]:
    """Classify a call that produces a nondeterministic value.

    Returns ``(kind, description)`` for wall clocks, module-global RNG,
    entropy sources and the banned builtins (``id``/``hash``), or None
    for deterministic calls. The *kind* is one of ``"wall-clock"``,
    ``"global-rng"``, ``"entropy"``, ``"identity"``.
    """
    target = call_target(node, imports)
    if target is not None:
        module, member = target
        root = module.split(".")[0]
        if root == "time" and member in WALL_CLOCK_ATTRS:
            return "wall-clock", f"time.{member}()"
        if root == "datetime" and member in DATETIME_ATTRS:
            return "wall-clock", f"datetime.{member}()"
        if module == "random" and member not in RANDOM_ALLOWED:
            return "global-rng", f"random.{member}()"
        if root in {"uuid", "secrets"} or (root == "os" and member == "urandom"):
            return "entropy", f"{module}.{member}()"
    func = node.func
    if (
        isinstance(func, ast.Name)
        and func.id in BANNED_BUILTINS
        and func.id not in imports.members
        and func.id not in imports.modules
    ):
        return "identity", f"{func.id}()"
    return None


def int_wrapper_names(imports: ImportMap) -> FrozenSet[str]:
    """The local names that denote an integer wrapper in this module.

    The builtin names themselves plus any ``from math import floor as
    fl``-style alias of a wrapper member.
    """
    names = set(INT_WRAPPERS)
    for alias, (module, member) in imports.members.items():
        if member in INT_WRAPPERS and module in _INT_WRAPPER_MODULES:
            names.add(alias)
    return frozenset(names)


def has_unwrapped_true_division(
    node: ast.expr, wrappers: FrozenSet[str] = INT_WRAPPERS
) -> Optional[ast.BinOp]:
    """First ``/`` not inside an ``int()``/``round()``/``floor()`` wrapper.

    ``wrappers`` is the module's resolved wrapper-name set (see
    :func:`int_wrapper_names`), so aliased imports of ``math.floor`` and
    friends sanitize a division just like the canonical spellings.
    """

    def scan(expr: ast.expr) -> Optional[ast.BinOp]:
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if name in wrappers:
                return None  # divisions under the wrapper are integered
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    hit = scan(child)
                    if hit is not None:
                        return hit
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            return expr
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                hit = scan(child)
                if hit is not None:
                    return hit
        return None

    return scan(node)


def describe_setish(node: ast.expr) -> Optional[str]:
    """Why ``node`` has hash-dependent (or order-obscuring) iteration."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return "a .keys() view"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = describe_setish(node.left)
        if left is not None:
            return f"a set expression ({left} ...)"
        right = describe_setish(node.right)
        if right is not None:
            return f"a set expression (... {right})"
    return None


__all__ = [
    "BANNED_BUILTINS",
    "DATETIME_ATTRS",
    "INT_WRAPPERS",
    "ImportMap",
    "RANDOM_ALLOWED",
    "RECIPE_KWARGS",
    "SUBMIT_ATTRS",
    "WALL_CLOCK_ATTRS",
    "attribute_chain",
    "call_target",
    "describe_setish",
    "has_unwrapped_true_division",
    "int_wrapper_names",
    "nondet_call",
]
