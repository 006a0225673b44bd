"""Static facts CYC001 shares: integer wrappers and how imports alias them.

A division wrapped in ``int()``/``round()``/``floor()``/``ceil()``/
``trunc()`` is integer again, also when the wrapper is an aliased member
import (``from math import floor as fl``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Tuple

#: Wrapping a division in one of these restores integer-ness.
INT_WRAPPERS: FrozenSet[str] = frozenset({"int", "round", "floor", "ceil", "trunc"})
#: Modules whose members the int wrappers may be imported from.
_INT_WRAPPER_MODULES: FrozenSet[str] = frozenset({"math", "builtins"})


class ImportMap(ast.NodeVisitor):
    """Map local names to the module members they alias."""

    def __init__(self) -> None:
        #: local name -> (module, member) ("from math import floor as fl")
        self.members: Dict[str, Tuple[str, str]] = {}

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.members[alias.asname or alias.name] = (node.module, alias.name)


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


__all__ = [
    "INT_WRAPPERS",
    "ImportMap",
    "has_unwrapped_true_division",
    "int_wrapper_names",
]
