"""Rule framework for the simulator-invariant linter.

A :class:`Rule` inspects one parsed module and yields :class:`Finding`
objects. Rules self-register via the :func:`register` decorator; the
driver (:func:`lint_text` / :func:`lint_file` / :func:`lint_paths`)
parses each file once, builds a :class:`LintContext`, applies every rule
whose package gate matches the module, and filters findings through the
per-line suppression comments.

Suppressions
------------
A finding is suppressed when the physical line it is reported on carries
a comment of the form::

    x = risky()  # lint: ignore[CYC001]
    y = other()  # lint: ignore[CYC001, IO001] -- optional rationale
    z = all_of_them()  # lint: ignore

For findings reported on a decorated ``def``/``class`` line, suppression
comments on the decorator lines apply too, and *stack*: the codes from
every decorator line and the ``def`` line itself are unioned, so two
decorators can each acknowledge a different rule.

``# lint: skip-file`` anywhere in the first five lines exempts the whole
module (used for test fixtures that are deliberately broken).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

#: Severity levels in increasing order of importance.
SEVERITIES = ("note", "warning", "error")

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code`, :attr:`summary` and optionally
    :attr:`packages` (dotted-module prefixes the rule is gated to; empty
    means every module) and implement :meth:`check`.
    """

    code: str = ""
    summary: str = ""
    severity: str = "error"
    #: Dotted module prefixes this rule applies to ("repro.cache" matches
    #: "repro.cache" and "repro.cache.anything"). Empty tuple = all files.
    packages: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not self.packages:
            return True
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.packages
        )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: LintContext,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity or self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    if rule_cls.severity not in SEVERITIES:
        raise ValueError(f"unknown severity {rule_cls.severity!r}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, importing the built-in set on first use."""
    # Imported lazily so `import repro.lintkit.base` has no side effects
    # and the rules module can itself import from here.
    from repro.lintkit import rules as _rules  # noqa: F401

    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Suppression comments


def _suppressions(source: str) -> Tuple[bool, Dict[int, Optional[Set[str]]]]:
    """Scan comments; returns (skip_file, {line: codes-or-None}).

    ``None`` as the code set means "ignore every rule on this line".
    """
    skip_file = False
    by_line: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            if tok.start[0] <= 5 and _SKIP_FILE_RE.search(tok.string):
                skip_file = True
            match = _IGNORE_RE.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            if match.group(1) is None:
                by_line[line] = None
            else:
                codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
                existing = by_line.get(line, set())
                if existing is not None:
                    by_line[line] = existing | codes
    except tokenize.TokenError:
        pass
    return skip_file, by_line


def _decorator_lines(tree: ast.Module) -> Dict[int, List[int]]:
    """Map each decorated def/class line to its decorator lines.

    Findings land on the ``def`` line, but suppression comments read most
    naturally on the decorators stacked above it — both work, and their
    rule codes are unioned.
    """
    out: Dict[int, List[int]] = {}
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node.decorator_list:
            out[node.lineno] = [d.lineno for d in node.decorator_list]
    return out


def _is_suppressed(
    finding: Finding,
    by_line: Dict[int, Optional[Set[str]]],
    dec_lines: Optional[Dict[int, List[int]]] = None,
) -> bool:
    lines = [finding.line]
    if dec_lines:
        lines.extend(dec_lines.get(finding.line, ()))
    codes: Set[str] = set()
    for line in lines:
        entry = by_line.get(line, set())
        if entry is None:
            return True  # blanket `# lint: ignore`
        codes |= entry
    return finding.rule in codes


# ----------------------------------------------------------------------
# Module-name derivation


def module_name_for(path: str) -> str:
    """Derive the dotted module name of ``path`` from __init__.py markers.

    Walks up from the file while each parent directory is a package, so
    ``.../src/repro/cache/cache.py`` maps to ``repro.cache.cache``
    wherever the tree is checked out. Files outside a package map to
    their bare stem.
    """
    abspath = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(abspath))[0]]
    parent = os.path.dirname(abspath)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.append(os.path.basename(parent))
        parent = os.path.dirname(parent)
    if parts[0] == "__init__":
        parts = parts[1:] or ["__init__"]
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Drivers


@dataclass
class ParsedFile:
    """One source file, parsed once, with its suppression map.

    ``ctx`` is None when the file could not be read or parsed; ``error``
    then carries the LINT000/LINT001 finding to report instead.
    """

    path: str
    ctx: Optional[LintContext] = None
    skip_file: bool = False
    by_line: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    dec_lines: Dict[int, List[int]] = field(default_factory=dict)
    error: Optional[Finding] = None


def parse_source(
    source: str, *, path: str = "<string>", module: Optional[str] = None
) -> ParsedFile:
    """Parse ``source`` into a :class:`ParsedFile` (never raises)."""
    module_name = module if module is not None else module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ParsedFile(
            path=path,
            error=Finding(
                rule="LINT000",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            ),
        )
    skip_file, by_line = _suppressions(source)
    ctx = LintContext(
        path=path,
        module=module_name,
        tree=tree,
        source=source,
        lines=source.splitlines(),
    )
    return ParsedFile(
        path=path,
        ctx=ctx,
        skip_file=skip_file,
        by_line=by_line,
        dec_lines=_decorator_lines(tree),
    )


def parse_file(path: str) -> ParsedFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return ParsedFile(
            path=path,
            error=Finding(
                rule="LINT001",
                path=path,
                line=1,
                col=0,
                message=f"cannot read file: {exc}",
            ),
        )
    return parse_source(source, path=path)


def lint_parsed(
    files: Sequence[ParsedFile],
    *,
    select: Optional[Sequence[str]] = None,
    apply_suppressions: bool = True,
) -> List[Finding]:
    """Lint already-parsed files, each module on its own.

    Every selected rule whose package gate matches a module checks it;
    findings are then filtered through each file's suppression comments
    and sorted.
    """
    rules = [
        rule_cls()
        for code, rule_cls in sorted(all_rules().items())
        if select is None or code in select
    ]
    findings: List[Finding] = []
    active: List[ParsedFile] = []
    for parsed in files:
        if parsed.error is not None:
            findings.append(parsed.error)
            continue
        if parsed.skip_file and apply_suppressions:
            continue
        assert parsed.ctx is not None
        active.append(parsed)
        for rule in rules:
            if rule.applies_to(parsed.ctx.module):
                findings.extend(rule.check(parsed.ctx))
    if apply_suppressions:
        by_path = {p.path: p for p in active}
        findings = [
            f
            for f in findings
            if f.path not in by_path
            or not _is_suppressed(
                f, by_path[f.path].by_line, by_path[f.path].dec_lines
            )
        ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_text(
    source: str,
    *,
    path: str = "<string>",
    module: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    apply_suppressions: bool = True,
) -> List[Finding]:
    """Lint ``source`` as if it were the module ``module``.

    ``select`` limits the run to the given rule codes. Syntax errors are
    reported as a single ``LINT000`` finding rather than raised, so one
    broken file cannot abort a tree-wide run. ``apply_suppressions=False``
    ignores ``# lint: ignore`` / ``# lint: skip-file`` comments — used by
    the fixture tests, which lint deliberately-broken files that carry a
    skip-file guard against accidental tree-wide runs.
    """
    parsed = parse_source(source, path=path, module=module)
    return lint_parsed(
        [parsed], select=select, apply_suppressions=apply_suppressions
    )


def lint_file(
    path: str, *, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    return lint_parsed([parse_file(path)], select=select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic list of .py files."""
    for root_path in paths:
        if os.path.isfile(root_path):
            yield root_path
            continue
        for dirpath, dirnames, filenames in os.walk(root_path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in {"__pycache__", ".git", ".hypothesis"}
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def parse_paths(
    paths: Sequence[str],
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ParsedFile]:
    """Parse every Python file under ``paths`` once."""
    parsed: List[ParsedFile] = []
    for filename in iter_python_files(paths):
        if progress is not None:
            progress(filename)
        parsed.append(parse_file(filename))
    return parsed


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[Finding]:
    return lint_parsed(parse_paths(paths, progress=progress), select=select)


__all__ = [
    "Finding",
    "LintContext",
    "ParsedFile",
    "Rule",
    "SEVERITIES",
    "all_rules",
    "iter_python_files",
    "lint_file",
    "lint_parsed",
    "lint_paths",
    "lint_text",
    "module_name_for",
    "parse_file",
    "parse_paths",
    "parse_source",
    "register",
]
