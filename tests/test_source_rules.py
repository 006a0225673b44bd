"""Source rules: AST checks over ``src/repro`` that hold five invariants.

Each test walks the modules its rule covers and names every offending
site as ``module:line name``. A site a rule flags on purpose is waived
by one entry of the rule's exemption table, keyed by module and name,
with its reason; an entry that matches no site, or more than one, fails
the test too. Each test also checks one known-bad and one known-good
snippet, so a rule that silently matches nothing fails. DESIGN.md §6
maps each rule to the invariant it protects.
"""

import ast
import re
import shutil
import subprocess
import textwrap
from functools import partial
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def modules():
    """``(module name, AST)`` of every file under ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        source = path.read_text(encoding="utf-8")
        found.append((".".join(parts), ast.parse(source, str(path))))
    return found


def assert_no_sites(modules, rule, packages, skip=(), waivers=()):
    """Fail naming every ``module:line name`` that ``rule`` flags.

    ``rule(tree)`` yields ``(line, name)`` pairs. Only modules in
    ``packages`` and not in ``skip`` are checked. A site whose
    ``(module, name)`` is in ``waivers`` is allowed, and each waiver must
    match exactly one site.
    """
    hits = {key: 0 for key in waivers}
    sites = []
    for module, tree in modules:
        if module in skip or not any(
            module == p or module.startswith(p + ".") for p in packages
        ):
            continue
        for line, name in sorted(rule(tree)):
            if (module, name) in hits:
                hits[module, name] += 1
            else:
                sites.append(f"{module}:{line} {name}")
    stale = [key for key, count in hits.items() if count != 1]
    assert not stale, f"each waiver must match exactly one site: {stale}"
    assert not sites, "offending sites:\n" + "\n".join(sites)


def snippet_names(rule, source):
    """The names ``rule`` flags in ``source``, in line order."""
    return [name for _line, name in sorted(rule(ast.parse(textwrap.dedent(source))))]


# ----------------------------------------------------------------------
# CYC001: Table 1's epoch-hit/miss-time and the quantum and epoch
# lengths are integer cycle counts, so no true division may feed a
# cycle-typed name unless int(), round(), floor(), ceil() or trunc()
# wraps it.

CYCLE_NAME = re.compile(r"(?:^|_)(?:cycles?|quantum|quanta|epochs?)(?:$|_)")
INT_WRAPPERS = frozenset({"int", "round", "floor", "ceil", "trunc"})

#: (module, name) -> why that one site may divide into a cycle-typed name.
CYC001_WAIVERS = {
    ("repro.models.perrequest", "interference_cycles"): (
        "PerRequestAccounting's interference_cycles is the model's float "
        "estimate of stall cycles (attributed cycles scaled down by MLP), "
        "not engine time"
    ),
}


def bound_names(target):
    """The names a store target binds, through subscripts and attributes."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Subscript, ast.Starred)):
        yield from bound_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from bound_names(elt)


def unwrapped_division(expr):
    """The first ``/`` in ``expr`` that no integer wrapper encloses."""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = getattr(func, "id", None) or getattr(func, "attr", "")
        if name in INT_WRAPPERS:
            return None
    elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return expr
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            found = unwrapped_division(child)
            if found is not None:
                return found
    return None


def cyc001(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        names = [n for t in targets for n in bound_names(t) if CYCLE_NAME.search(n)]
        if not names or value is None:
            continue
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, names[0]
            continue
        division = unwrapped_division(value)
        if division is not None:
            yield division.lineno, names[0]


def test_cyc001_cycle_counts_stay_integers(modules):
    bad = """
        def window(total, parts):
            epoch_cycles = total / parts
            last_epoch = total - (total / parts) * parts
            return epoch_cycles, last_epoch

        class Accounting:
            def halve(self):
                self.quantum /= 2
    """
    good = """
        import math

        def window(total, parts, accesses, quantum_cycles):
            epoch_cycles = total // parts
            stall_cycles = int((total + 1) / parts)
            drain_cycles = math.floor(total / parts)
            car_shared = accesses / quantum_cycles
            return epoch_cycles, stall_cycles, drain_cycles, car_shared
    """
    assert snippet_names(cyc001, bad) == ["epoch_cycles", "last_epoch", "quantum"]
    assert snippet_names(cyc001, good) == []
    assert_no_sites(modules, cyc001, ("repro",), waivers=CYC001_WAIVERS)


# ----------------------------------------------------------------------
# TEL001: a slowdown model reads simulator counters only through its
# CounterBank, the path the telemetry chaos suite faults. A raw counter
# is legal only inside attach(), where it is registered as a bank
# external.

RAW_COUNTERS = frozenset(
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

#: The shared accounting helpers own the raw counters.
TEL001_OWNERS = ("repro.models.base", "repro.models.perrequest")


def tel001(tree, in_attach=False):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr in RAW_COUNTERS:
            if not in_attach:
                yield node.lineno, node.attr
        inside = in_attach or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "attach"
        )
        yield from tel001(node, inside)


def test_tel001_models_read_counters_through_the_bank(modules):
    bad = """
        class Impatient:
            def attach(self, system):
                self._controller = system.mem.controller

            def estimate_slowdowns(self):
                return self._controller.queueing_cycles[0]

            def reset_quantum(self):
                self._tracker.busy_cycles = 0
    """
    good = """
        class Guarded:
            def attach(self, system):
                controller = system.mem.controller
                self._queueing = self.bank.external(
                    "queueing_cycles",
                    lambda core: controller.queueing_cycles[core],
                )

            def estimate_slowdowns(self, core):
                return self._queueing.delta(core)
    """
    assert snippet_names(tel001, bad) == ["queueing_cycles", "busy_cycles"]
    assert snippet_names(tel001, good) == []
    assert_no_sites(
        modules, tel001, ("repro.models", "repro.cloud"), skip=TEL001_OWNERS
    )


# ----------------------------------------------------------------------
# IO001: campaign bytes go through repro.durability.atomic, whose
# append, replace and fsync order is what the checksummed store's
# torn-tail recovery assumes. A writable open() with a literal mode, or
# Path.write_text(), in a persistence package is a bare write.

PERSISTENCE_PACKAGES = (
    "repro.durability",
    "repro.obs",
    "repro.parallel",
    "repro.resilience",
    "repro.cloud",
)

#: The atomic helpers are the implementation and call open() themselves.
IO001_IMPLEMENTATION = ("repro.durability.atomic",)

#: (module, name) -> why that one site may write bare.
IO001_WAIVERS = {
    ("repro.resilience.inject", "open('w')"): (
        "FlakyModel's sentinel file is scratch test state, not campaign "
        "state: losing it to a crash only makes the fault fire once more"
    ),
}


def io001(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) >= 2 else None
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and set(mode.value) & set("wax+")
            ):
                yield node.lineno, f"open({mode.value!r})"
        elif isinstance(func, ast.Attribute) and func.attr == "write_text":
            yield node.lineno, ".write_text()"


def test_io001_persistence_writes_go_through_atomic(modules):
    bad = """
        from pathlib import Path

        def save(path, text):
            with open(path, "w") as handle:
                handle.write(text)
            with open(path, mode="a") as handle:
                handle.write(text)
            with open(path, "r+") as handle:
                handle.write(text)
            Path(path).write_text(text)
    """
    good = """
        from repro.durability.atomic import append_line, atomic_write_text

        def save(path, text, mode):
            atomic_write_text(path, text)
            append_line(path, text)
            with open(path) as handle, open(path, "r") as again:
                data = handle.read() + again.read()
            with open(path, mode="rb") as raw, open(path, mode) as computed:
                return data, raw.read(), computed
    """
    assert snippet_names(io001, bad) == [
        "open('w')",
        "open('a')",
        "open('r+')",
        ".write_text()",
    ]
    assert snippet_names(io001, good) == []
    assert_no_sites(
        modules,
        io001,
        PERSISTENCE_PACKAGES,
        skip=IO001_IMPLEMENTATION,
        waivers=IO001_WAIVERS,
    )


# ----------------------------------------------------------------------
# DOC001: docs/models.md and docs/architecture.md link into these
# packages by symbol, so every public class and function there carries
# a docstring. Names starting with "_" (dunders too), members of private
# classes and functions nested in functions are exempt.

DOCUMENTED_PACKAGES = ("repro.obs", "repro.models", "repro.analytic")


def doc001(tree, prefix="", private=False):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            hidden = private or node.name.startswith("_")
            if not hidden and ast.get_docstring(node) is None:
                yield node.lineno, prefix + node.name
            yield from doc001(node, f"{prefix}{node.name}.", hidden)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hidden = private or node.name.startswith("_")
            if not hidden and ast.get_docstring(node) is None:
                yield node.lineno, prefix + node.name


def test_doc001_documented_packages_keep_docstrings(modules):
    bad = """
        class BareSink:
            def write(self, event):
                self.last = event

        class Documented:
            '''Has a docstring; its public method does not.'''

            def emit(self, event):
                return event

        def mask_of(names):
            return names
    """
    good = """
        class Sink:
            '''A sink whose public surface is documented.'''

            def write(self, event):
                '''Record the event.'''

            def __repr__(self):
                return "Sink()"

            def _flush(self):
                pass

        class _Helper:
            def inner(self):
                pass

        def mask_of(names):
            '''Build a mask from category names.'''

            def build(name):
                return name

            return [build(n) for n in names]
    """
    assert snippet_names(doc001, bad) == [
        "BareSink",
        "BareSink.write",
        "Documented.emit",
        "mask_of",
    ]
    assert snippet_names(doc001, good) == []
    assert_no_sites(modules, doc001, DOCUMENTED_PACKAGES)


# ----------------------------------------------------------------------
# REACH001: code only its own tests call is deleted, not kept. Every
# function, class, method or property defined in src/repro (dunders
# excepted: the interpreter calls them) must be named by a src/repro
# module, a Python file under e2ebench/, examples/ or tools/, or a CI
# workflow. A package __init__'s re-exports, __all__ and lazy-export
# maps do not count. Outside src, a string constant that is one
# identifier counts too, because e2ebench's tracer patches methods by
# name.

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Top-level directories whose Python files count as callers.
REACH_ROOTS = ("e2ebench", "examples", "tools")

#: Pool workers import these test injectors by module path.
REACH001_SKIP = ("repro.resilience.inject",)

#: (module, name) -> why that one definition stays with no caller
#: outside tests.
REACH001_WAIVERS = {
    ("repro.cache.cache", "SetAssocCache"): (
        "the reference cache: the auxiliary tag store tests compare an "
        "application's alone cache image through it, access by access"
    ),
    ("repro.harness.runner", "run_alone"): (
        "the reference alone run the lazy alone legs are tested against"
    ),
    ("repro.resilience.faults", "replay_failure"): (
        "public API that re-runs a captured RunFailure (README, "
        "'Fault isolation'); a user calls it, no module does"
    ),
    ("repro.analysis.report", "build_report"): (
        "the one step that rebuilds results/REPORT.md (README's command); "
        "the analysis tests check the committed report is current"
    ),
    ("repro.durability.chaos", "set_plan"): (
        "installs a fault plan in-process, the path the durability tests "
        "drive IO faults through; campaigns read REPRO_CHAOS instead"
    ),
    ("repro.resilience.campaign", "get_metrics"): (
        "the one reader of metrics.jsonl; the open ROADMAP items that "
        "explain estimates and time cells from stored records build on it"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree, package=False, strings=False):
    """The names code in ``tree`` reads: names, attributes and imported
    names (not when ``tree`` is a package ``__init__``, whose imports
    re-export), and with ``strings`` each one-identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias) and not package:
            yield node.name.rpartition(".")[2]
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and IDENTIFIER.fullmatch(node.value)
        ):
            yield node.value


def reach001(tree, elsewhere):
    """Definitions in ``tree`` that neither ``tree`` nor ``elsewhere`` names.

    The match is by name, so a dead method that shares its name with a
    live one passes: ``CircuitBreaker.summary`` and ``AloneRunCache.stats``
    hid that way until they were found by hand.
    """
    named = set(elsewhere) | set(referenced_names(tree))
    for node in ast.walk(tree):
        if (
            isinstance(node, DEFINITIONS)
            and node.name not in named
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ):
            yield node.lineno, node.name


def reach_callers():
    """Every name that a place REACH001 counts as a caller references."""
    names = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names.update(referenced_names(tree, package=path.name == "__init__.py"))
    for root in REACH_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            names.update(referenced_names(tree, strings=True))
    for path in sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml")):
        names.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return names


def test_reach001_definitions_have_callers_outside_tests(modules):
    package = """
        from repro.store import Store, helper

        __all__ = ["Store", "helper"]
    """
    bad = """
        class Store:
            def get(self, key):
                return {"stats": key}

            def stats(self):
                return {}

            @property
            def closed(self):
                return False

            def __len__(self):
                return 0

        def helper():
            return 1
    """
    good = """
        class Store:
            def get(self, key):
                return self._load(key)

            def _load(self, key):
                return key

        def cached(fn):
            return fn

        @cached
        def run(store):
            return store.get(1)
    """
    exported = referenced_names(ast.parse(textwrap.dedent(package)), package=True)
    caller = {"Store", "get"} | set(exported)
    assert snippet_names(partial(reach001, elsewhere=caller), bad) == [
        "stats",
        "closed",
        "helper",
    ]
    tracer = referenced_names(ast.parse("patch(Store, 'run')"), strings=True)
    assert snippet_names(partial(reach001, elsewhere=set(tracer)), good) == []
    assert_no_sites(
        modules,
        partial(reach001, elsewhere=reach_callers()),
        ("repro",),
        skip=REACH001_SKIP,
        waivers=REACH001_WAIVERS,
    )


# ----------------------------------------------------------------------
# Strict typing: the modules CI's lint job runs ``mypy --strict`` on
# (see ``[tool.mypy]`` in pyproject.toml). Runs only where mypy is
# installed.

MYPY_STRICT_PATHS = [
    "src/repro/engine.py",
    "src/repro/models/base.py",
    "src/repro/parallel.py",
    "src/repro/telemetry",
    "src/repro/obs",
    "src/repro/durability",
    "src/repro/cloud",
    "src/repro/analytic",
]


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_on_gated_modules():
    result = subprocess.run(
        ["mypy", *MYPY_STRICT_PATHS],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
