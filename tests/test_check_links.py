"""Tests for the markdown link checker (tools/check_links.py)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_links", REPO_ROOT / "tools" / "check_links.py"
)
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def test_fragment_anchors_resolve_against_heading_slugs(tmp_path):
    (tmp_path / "target.md").write_text(
        "# Title\n"
        "\n"
        "## 9. Execution tiers (`repro.analytic`) — two of them\n"
        "\n"
        "## Notes\n"
        "## Notes\n"
        "\n"
        "```\n"
        "## Fenced heading\n"
        "```\n"
    )
    doc = tmp_path / "doc.md"
    doc.write_text(
        "## Local section\n"
        "\n"
        "[ok](target.md#9-execution-tiers-reproanalytic--two-of-them)\n"
        "[gone](target.md#9-execution-backends-reprovector)\n"
        "[fenced](target.md#fenced-heading)\n"
        "[repeat](target.md#notes-1)\n"
        "[self](#local-section)\n"
        "[self-gone](#missing-section)\n"
    )
    broken = check_links.check_file(doc, tmp_path)
    assert broken == [
        (4, "target.md#9-execution-backends-reprovector"),
        (5, "target.md#fenced-heading"),
        (8, "#missing-section"),
    ]
