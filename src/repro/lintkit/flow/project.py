"""Project symbol table: modules, functions, call resolution.

A :class:`Project` indexes every linted module once. Analyses resolve
calls through :meth:`Project.resolve_call` instead of re-deriving imports
per file: an ``ast.Call`` in a given function resolves to the
:class:`FunctionInfo` it invokes, through ``from x import y as z``
aliases, ``import m as n`` chains, ``self.method(...)`` and same-module
``ClassName.method(...)`` references.

Resolution is best-effort and sound-for-silence: anything dynamic
(instance attributes, ``getattr``, re-exported names) returns ``None``
and downstream analyses treat the call as opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lintkit.base import LintContext
from repro.lintkit.facts import ImportMap, attribute_chain

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method, with enough context to analyze it."""

    module: str
    qualname: str
    node: FunctionNode
    imports: ImportMap
    ctx: LintContext
    class_name: Optional[str] = None

    @property
    def ref(self) -> str:
        """Fully-qualified name: ``module.qualname``."""
        return f"{self.module}.{self.qualname}"

    @property
    def name(self) -> str:
        return self.node.name

    def param_names(self) -> List[str]:
        """Parameter names, including ``self`` for methods.

        Keyword-only parameters come last, so a positional argument's
        index always lands inside the positional region and a
        keyword argument resolves by name wherever it sits.
        """
        args = self.node.args
        return [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]


@dataclass
class ModuleInfo:
    """One indexed module: its imports, functions and class names."""

    ctx: LintContext
    imports: ImportMap
    #: qualname ("f" or "Cls.m") -> info, for every indexed function.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.ctx.module


def _index_module(ctx: LintContext) -> ModuleInfo:
    imports = ImportMap()
    imports.visit(ctx.tree)
    info = ModuleInfo(ctx=ctx, imports=imports)
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = FunctionInfo(
                module=ctx.module,
                qualname=stmt.name,
                node=stmt,
                imports=imports,
                ctx=ctx,
            )
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        module=ctx.module,
                        qualname=f"{stmt.name}.{member.name}",
                        node=member,
                        imports=imports,
                        ctx=ctx,
                        class_name=stmt.name,
                    )
                    info.functions[method.qualname] = method
            info.classes.add(stmt.name)
    return info


class Project:
    """Symbol table over every linted module, built once per run."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: full ref ("pkg.mod.Cls.m") -> info, across all modules.
        self.functions: Dict[str, FunctionInfo] = {}
        for minfo in modules.values():
            for func in minfo.functions.values():
                self.functions[func.ref] = func

    @classmethod
    def from_contexts(cls, contexts: Sequence[LintContext]) -> "Project":
        modules: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            modules[ctx.module] = _index_module(ctx)
        return cls(modules)

    # -- queries --------------------------------------------------------
    def modules_matching(
        self, packages: Tuple[str, ...]
    ) -> List[ModuleInfo]:
        """Modules gated by ``packages`` (all modules when empty), in
        deterministic name order."""
        out: List[ModuleInfo] = []
        for name in sorted(self.modules):
            if not packages or any(
                name == pkg or name.startswith(pkg + ".")
                for pkg in packages
            ):
                out.append(self.modules[name])
        return out

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """The project function an ``ast.Call`` in ``caller`` invokes."""
        minfo = self.modules.get(caller.module)
        if minfo is None:
            return None
        func = call.func
        imports = caller.imports
        if isinstance(func, ast.Name):
            local = minfo.functions.get(func.id)
            if local is not None and local.class_name is None:
                return local
            member = imports.members.get(func.id)
            if member is not None:
                return self.functions.get(f"{member[0]}.{member[1]}")
            return None
        chain = attribute_chain(func)
        if chain is None or len(chain) < 2:
            return None
        root, rest = chain[0], chain[1:]
        if root == "self" and caller.class_name is not None and len(rest) == 1:
            return minfo.functions.get(f"{caller.class_name}.{rest[0]}")
        module = imports.modules.get(root)
        if module is not None:
            return self.functions.get(".".join([module, *rest]))
        member = imports.members.get(root)
        if member is not None:
            return self.functions.get(
                ".".join([member[0], member[1], *rest])
            )
        if root in minfo.classes and len(rest) == 1:
            return minfo.functions.get(f"{root}.{rest[0]}")
        return None


def param_offset(call: ast.Call, callee: FunctionInfo) -> int:
    """How many leading params (``self``/``cls``) the call binds
    implicitly — 1 for a plain method invoked as ``obj.m(...)``, else 0.
    """
    if callee.class_name is None:
        return 0
    decorators = {
        d.id for d in callee.node.decorator_list if isinstance(d, ast.Name)
    }
    if "staticmethod" in decorators:
        return 0
    if isinstance(call.func, ast.Attribute):
        return 1
    return 0


__all__ = [
    "FunctionInfo",
    "FunctionNode",
    "ModuleInfo",
    "Project",
    "param_offset",
]
