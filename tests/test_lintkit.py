"""Tests for the simulator-invariant linter (repro.lintkit)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintkit import lint_text
from repro.lintkit.base import all_rules, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lintkit_fixtures"

#: rule -> (expected finding count in the bad fixture, gate module used)
RULE_FIXTURES = {
    "CYC001": (5, "repro.cache.fixture"),
    "TEL001": (4, "repro.models.fixture"),
    "DOC001": (4, "repro.obs.fixture"),
    "IO001": (4, "repro.resilience.fixture"),
}


def lint_fixture(name, module, apply_suppressions=True):
    source = (FIXTURES / name).read_text()
    return lint_text(
        source,
        path=str(FIXTURES / name),
        module=module,
        apply_suppressions=apply_suppressions,
    )


#: One CYC001 finding: a true division assigned to a cycle count.
CYCLE_DIVISION = "def f(a, b):\n    total_cycles = a / b\n    return total_cycles\n"


def cache_package(root):
    """``root/repro/cache``, a package under CYC001's ``repro`` gate."""
    package = root / "repro" / "cache"
    package.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    return package


def run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lintkit", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------------
# Fixture files: known-bad snippets are caught, known-good ones pass.

@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_bad_fixture_is_caught(rule):
    expected_count, module = RULE_FIXTURES[rule]
    findings = lint_fixture(
        f"{rule.lower()}_bad.py", module, apply_suppressions=False
    )
    assert findings, f"{rule} bad fixture produced no findings"
    assert {f.rule for f in findings} == {rule}
    assert len(findings) == expected_count


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_good_fixture_is_clean(rule):
    _, module = RULE_FIXTURES[rule]
    findings = lint_fixture(f"{rule.lower()}_good.py", module)
    assert findings == [], [f.render() for f in findings]


def test_every_registered_simulator_rule_has_fixtures():
    codes = {c for c in all_rules() if not c.startswith("LINT")}
    assert codes == set(RULE_FIXTURES)
    for code in codes:
        assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
        assert (FIXTURES / f"{code.lower()}_good.py").is_file()


# ----------------------------------------------------------------------
# Specific rule semantics worth pinning beyond the fixtures.

def test_cyc001_floor_division_is_clean():
    bad = "def f(a, b):\n    total_cycles = a / b\n    return total_cycles\n"
    good = bad.replace("a / b", "a // b")
    assert {f.rule for f in lint_text(bad, module="repro.engine")} == {"CYC001"}
    assert lint_text(good, module="repro.engine") == []


def test_doc001_gated_to_documented_packages():
    source = "class Widget:\n    pass\n"
    assert {f.rule for f in lint_text(source, module="repro.obs.sinks")} == {
        "DOC001"
    }
    assert {f.rule for f in lint_text(source, module="repro.models.asm")} == {
        "DOC001"
    }
    # Outside the documented packages the rule stays silent.
    assert lint_text(source, module="repro.harness.runner") == []


def test_doc001_exemptions():
    module = "repro.obs.sinks"
    documented = 'class Widget:\n    """Doc."""\n'
    assert lint_text(documented, module=module) == []
    private = "class _Widget:\n    def helper(self):\n        pass\n"
    assert lint_text(private, module=module) == []
    dunder = (
        'class Widget:\n    """Doc."""\n\n'
        "    def __len__(self):\n        return 0\n"
    )
    assert lint_text(dunder, module=module) == []
    nested = (
        'def outer():\n    """Doc."""\n\n'
        "    def inner():\n        pass\n    return inner\n"
    )
    assert lint_text(nested, module=module) == []


def test_tel001_allows_raw_reads_only_inside_attach():
    bad = (
        "class M:\n"
        '    """Doc."""\n'
        "    def estimate(self):\n"
        '        """Doc."""\n'
        "        return self.ctrl.queueing_cycles[0]\n"
    )
    good = (
        "class M:\n"
        '    """Doc."""\n'
        "    def attach(self, system):\n"
        '        """Doc."""\n'
        "        ctrl = system.ctrl\n"
        "        self.bank.external('q', lambda c: ctrl.queueing_cycles[c])\n"
    )
    assert {f.rule for f in lint_text(bad, module="repro.models.asm")} == {"TEL001"}
    assert lint_text(good, module="repro.models.asm") == []
    # The shared accounting helpers *own* these counters and are exempt;
    # so is everything outside repro.models.
    assert lint_text(bad, module="repro.models.perrequest") == []
    assert lint_text(bad, module="repro.harness.runner") == []


def test_io001_gated_to_persistence_packages():
    source = 'def f(path):\n    with open(path, "w") as h:\n        h.write("x")\n'
    assert {f.rule for f in lint_text(source, module="repro.resilience.campaign")} == {
        "IO001"
    }
    assert {f.rule for f in lint_text(source, module="repro.parallel")} == {
        "IO001"
    }
    # The atomic helper itself is the sanctioned wrapper and is exempt.
    assert lint_text(source, module="repro.durability.atomic") == []
    # Outside the persistence packages the rule stays silent.
    assert lint_text(source, module="repro.workloads.synthetic") == []


def test_io001_ignores_reads_and_computed_modes():
    module = "repro.resilience.campaign"
    reads = 'def f(p):\n    return open(p).read() + open(p, "r").read()\n'
    assert lint_text(reads, module=module) == []
    # A computed mode is not statically decidable; the rule stays quiet
    # rather than guessing.
    computed = "def f(p, m):\n    return open(p, m)\n"
    assert lint_text(computed, module=module) == []


# ----------------------------------------------------------------------
# Framework behaviour: suppressions, module naming, errors.

def test_inline_suppression_and_rationale():
    flagged = "def f(a, b):\n    total_cycles = a / b\n"
    suppressed = (
        "def f(a, b):\n"
        "    total_cycles = a / b  # lint: ignore[CYC001] -- fractional\n"
    )
    blanket = "def f(a, b):\n    total_cycles = a / b  # lint: ignore\n"
    other_rule = (
        "def f(a, b):\n    total_cycles = a / b  # lint: ignore[IO001]\n"
    )
    module = "repro.engine"
    assert lint_text(flagged, module=module) != []
    assert lint_text(suppressed, module=module) == []
    assert lint_text(blanket, module=module) == []
    assert lint_text(other_rule, module=module) != []  # wrong code


def test_skip_file_marker():
    source = "# lint: skip-file\ndef f(a, b):\n    total_cycles = a / b\n"
    assert lint_text(source, module="repro.models.m") == []
    assert lint_text(
        source, module="repro.models.m", apply_suppressions=False
    ) != []


def test_decorator_line_suppressions_stack():
    # Codes on decorator lines and the def line union: each decorator
    # can acknowledge a different rule for a finding reported on the
    # def line below.
    module = "repro.obs.sinks"
    source = (
        "@alpha  # lint: ignore[CYC001]\n"
        "@beta  # lint: ignore[DOC001]\n"
        "def exported():\n"
        "    pass\n"
    )
    assert lint_text(source, module=module) == []
    # None of the stacked codes matching still reports.
    wrong = source.replace("ignore[DOC001]", "ignore[TEL001]")
    assert [f.rule for f in lint_text(wrong, module=module)] == ["DOC001"]


def test_syntax_error_reported_not_raised():
    findings = lint_text("def broken(:\n", module="repro.models.m")
    assert [f.rule for f in findings] == ["LINT000"]


def test_module_name_derivation():
    path = REPO_ROOT / "src" / "repro" / "cache" / "cache.py"
    assert module_name_for(str(path)) == "repro.cache.cache"
    package = REPO_ROOT / "src" / "repro" / "cache" / "__init__.py"
    assert module_name_for(str(package)) == "repro.cache"


# ----------------------------------------------------------------------
# CLI: the checked-in tree is clean, and its only waivers are the
# inline comments in the source itself.

def test_repro_lint_clean_on_repo(tmp_path):
    result = run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stderr
    # No waiver depends on the working directory.
    elsewhere = run_cli(str(REPO_ROOT / "src"), cwd=tmp_path)
    assert elsewhere.returncode == 0, elsewhere.stdout + elsewhere.stderr


def test_cli_reports_violations_with_json_output(tmp_path):
    bad = cache_package(tmp_path) / "payload.py"
    bad.write_text(CYCLE_DIVISION)
    result = run_cli(str(bad), "--format", "json")
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report["files_scanned"] == 1
    assert [f["rule"] for f in report["findings"]] == ["CYC001"]


def test_cli_list_rules_and_bad_select():
    listed = run_cli("--list-rules")
    assert listed.returncode == 0
    for code in RULE_FIXTURES:
        assert code in listed.stdout
    bogus = run_cli("src", "--select", "NOPE999")
    assert bogus.returncode == 2


def test_cli_sarif_output_shape(tmp_path):
    bad = cache_package(tmp_path) / "payload.py"
    bad.write_text(CYCLE_DIVISION)
    result = run_cli(str(bad), "--format", "sarif")
    assert result.returncode == 1
    log = json.loads(result.stdout)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["CYC001"]
    (res,) = run["results"]
    assert res["ruleId"] == "CYC001"
    region = res["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    # A clean tree still emits a valid (empty) SARIF log on exit 0.
    good = tmp_path / "ok.py"
    good.write_text("X = 1\n")
    clean = run_cli(str(good), "--format", "sarif")
    assert clean.returncode == 0
    assert json.loads(clean.stdout)["runs"][0]["results"] == []


def test_cli_changed_only_filters_to_changed_files(tmp_path):
    def git(*argv):
        subprocess.run(
            ["git", *argv], cwd=tmp_path, check=True, capture_output=True
        )

    git("init", "-q")
    git("config", "user.email", "lint@test")
    git("config", "user.name", "lint")
    # Under src/, so the package does not shadow repro in the CLI's cwd.
    package = cache_package(tmp_path / "src")
    stale = package / "stale.py"
    fresh = package / "fresh.py"
    payload = CYCLE_DIVISION
    stale.write_text(payload)
    fresh.write_text("X = 1\n")
    git("add", ".")
    git("commit", "-qm", "seed")
    fresh.write_text(payload)

    full = run_cli(str(tmp_path), "--format", "json", cwd=tmp_path)
    assert full.returncode == 1
    assert len(json.loads(full.stdout)["findings"]) == 2

    only = run_cli(
        str(tmp_path), "--changed-only", "--format", "json", cwd=tmp_path
    )
    assert only.returncode == 1
    report = json.loads(only.stdout)
    # Both files and the two package markers were parsed, but only the
    # modified file is reported.
    assert report["files_scanned"] == 4
    paths = {f["path"] for f in report["findings"]}
    assert paths == {str(fresh)} or paths == {"src/repro/cache/fresh.py"}, paths

    # An untracked file counts as changed too.
    extra = package / "extra.py"
    extra.write_text(payload)
    wider = run_cli(
        str(tmp_path), "--changed-only", "--format", "json", cwd=tmp_path
    )
    names = {
        os.path.basename(f["path"])
        for f in json.loads(wider.stdout)["findings"]
    }
    assert names == {"fresh.py", "extra.py"}


# ----------------------------------------------------------------------
# Strict typing gate (exercised fully in the CI lint job; here only when
# mypy happens to be installed, since the test env has no network).

@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_on_gated_modules():
    result = subprocess.run(
        [
            "mypy",
            "src/repro/engine.py",
            "src/repro/models/base.py",
            "src/repro/parallel.py",
            "src/repro/lintkit",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
