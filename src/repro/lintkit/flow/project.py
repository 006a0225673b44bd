"""Project symbol table: modules, classes, functions, call resolution.

A :class:`Project` indexes every linted module once. Rules and analyses
resolve names through it instead of re-deriving imports per file:

* ``resolve_call`` — an ``ast.Call`` in a given function to the
  :class:`FunctionInfo` it invokes, through ``from x import y as z``
  aliases, ``import m as n`` chains, ``self.method(...)`` and
  same-module ``ClassName.method(...)`` references.
* ``resolve_dotted`` — a fully-qualified dotted string (as written in
  the ``SCALAR_ORACLES`` registry) to a function or class.

Resolution is best-effort and sound-for-silence: anything dynamic
(instance attributes, ``getattr``, re-exported names) returns ``None``
and downstream analyses treat the call as opaque.

Declared facts
--------------
Two comment markers on a ``def`` line feed the analyses:

* ``# lint: pure`` — trust the function to have no module-global side
  effects (PUR001 stops descending).
* ``# lint: unit[cycles]`` — declare the return unit for dimension
  inference (UNIT001) when the name alone is ambiguous.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.lintkit.base import LintContext
from repro.lintkit.facts import ImportMap, attribute_chain

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_PURE_RE = re.compile(r"#\s*lint:\s*pure\b")
_UNIT_RE = re.compile(r"#\s*lint:\s*unit\[([a-z]+)\]")


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

    def _def_line(self) -> str:
        return self.ctx.source_line(self.node.lineno)

    def declared_pure(self) -> bool:
        """``# lint: pure`` on the def line: trusted to have no effects."""
        return _PURE_RE.search(self._def_line()) is not None

    def declared_unit(self) -> Optional[str]:
        """The unit declared by ``# lint: unit[...]`` on the def line."""
        match = _UNIT_RE.search(self._def_line())
        return match.group(1) if match else None


@dataclass
class ClassInfo:
    """One class with its directly-defined methods."""

    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def ref(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One indexed module: symbols, imports, module-level bindings."""

    ctx: LintContext
    imports: ImportMap
    #: qualname ("f" or "Cls.m") -> info, for every indexed function.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: names bound by module-level assignments (mutable-global candidates).
    global_names: FrozenSet[str] = frozenset()

    @property
    def name(self) -> str:
        return self.ctx.module


def _module_global_names(tree: ast.Module) -> FrozenSet[str]:
    names: set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    return frozenset(names)


def _index_module(ctx: LintContext) -> ModuleInfo:
    imports = ImportMap()
    imports.visit(ctx.tree)
    info = ModuleInfo(
        ctx=ctx,
        imports=imports,
        global_names=_module_global_names(ctx.tree),
    )
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
            cls = ClassInfo(module=ctx.module, name=stmt.name, node=stmt)
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
                    cls.methods[member.name] = method
                    info.functions[method.qualname] = method
            info.classes[stmt.name] = cls
    return info


class Project:
    """Symbol table over every linted module, built once per run."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: full ref ("pkg.mod.Cls.m") -> info, across all modules.
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for minfo in modules.values():
            for func in minfo.functions.values():
                self.functions[func.ref] = func
            for cls in minfo.classes.values():
                self.classes[cls.ref] = cls

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

    def resolve_dotted(
        self, dotted: str
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """A fully-qualified dotted name to its function or class."""
        func = self.functions.get(dotted)
        if func is not None:
            return func
        return self.classes.get(dotted)

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
    "ClassInfo",
    "FunctionInfo",
    "FunctionNode",
    "ModuleInfo",
    "Project",
    "param_offset",
]
