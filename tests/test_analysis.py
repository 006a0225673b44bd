"""Tests for the analysis package (paper targets, claims, report)."""

import re
from pathlib import Path

import pytest

from repro.analysis.paper_targets import (
    BY_CONSTRUCTION,
    FAILS,
    HOLDS,
    PAPER_TARGETS,
    parse_table,
    target_for,
)
from repro.analysis.report import _FILE_TO_VERB, build_report
from repro.experiments.common import format_table

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

#: EXPERIMENTS.md section heading (the text before " — ") -> paper target.
SECTIONS = {**{f"Fig {n}": f"fig{n:02d}" for n in range(1, 12)},
            "§6 (text)": "db", "§6.4": "sec64", "Table 3": "table3", "§7.2 (text)": "sec72"}


def test_paper_targets_cover_every_experiment_file():
    reached = {t.experiment for t in map(target_for, _FILE_TO_VERB.values()) if t}
    assert set(PAPER_TARGETS) <= reached
    for target in PAPER_TARGETS.values():
        assert target.claims, target.experiment
        for claim in target.claims:
            assert set(claim.stems) <= set(_FILE_TO_VERB), claim.text


def test_every_results_table_names_the_cli_verb_that_writes_it():
    from repro.cli import EXPERIMENTS

    assert {path.stem for path in RESULTS.glob("*.txt")} == set(_FILE_TO_VERB)
    assert set(_FILE_TO_VERB.values()) <= set(EXPERIMENTS)


def test_target_for():
    fig3 = target_for("fig03")
    assert fig3 is not None
    assert fig3.numbers["ptca"] == pytest.approx(40.4)
    assert target_for("fig06-sampled") is PAPER_TARGETS["fig06"]
    assert target_for("unknown") is None


def test_headline_paper_numbers():
    """Pin the transcribed headline numbers (typo guard)."""
    assert PAPER_TARGETS["fig02"].numbers == {
        "asm": 9.0, "ptca": 14.7, "fst": 18.5
    }
    assert PAPER_TARGETS["sec64"].numbers["mise"] == 22.0
    assert PAPER_TARGETS["fig04"].numbers["asm_max"] == 36.0


def test_parse_table_reads_format_table_layout():
    text = format_table(["key", "mean |x|"], [["a", 1.234], ["long-name", 10.0]])
    table = parse_table("title\n" + text + "\n\nnotes: 1, 2\n")
    assert table.headers == ("key", "mean |x|")
    assert table.labels() == ["a", "long-name"]
    assert table.column("mean |x|") == [1.23, table.value("mean |x|", "long-name")]
    with pytest.raises(ValueError):
        parse_table("table here\n")


def _verdicts():
    """(target key, bold verdicts) of each paper section of EXPERIMENTS.md."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        key = SECTIONS.get(section.split(" — ", 1)[0])
        if key is not None:
            bold = [" ".join(b.split()) for b in re.findall(r"\*\*(.+?)\*\*", section, re.S)]
            yield key, [b for b in bold if re.search("reproduced|by construction", b, re.I)]


def test_every_verdict_in_experiments_md_matches_its_claims():
    tables = {path.stem: parse_table(path.read_text()) for path in RESULTS.glob("*.txt")}
    found, problems = [], []
    for key, verdicts in _verdicts():
        found.append(key)
        if len(verdicts) != 1:
            problems.append(f"{key}: expected one bold verdict, found {verdicts}")
            continue
        verdict = verdicts[0].lower()
        status = [(c.text, c.status(tables)) for c in PAPER_TARGETS[key].claims]
        if "by construction" in verdict:
            bad = [text for text, s in status if s != BY_CONSTRUCTION]
        elif "partially reproduced" in verdict or "not reproduced" in verdict:
            bad = [] if any(s == FAILS for _, s in status) else ["no claim fails"]
        elif "reproduced" in verdict:
            bad = [f"{text} ({s})" for text, s in status if s != HOLDS]
        problems += [f"{key}: {verdicts[0]!r}, but {b}" for b in bad]
    assert sorted(found) == sorted(PAPER_TARGETS)
    assert not problems, "\n".join(problems)


def test_committed_report_is_current(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert build_report(output=None) == (RESULTS / "REPORT.md").read_text()


def test_build_report(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig02_error_unsampled.txt").write_text("table here\n")
    out = tmp_path / "REPORT.md"
    report = build_report(results, out)
    assert "fig02_error_unsampled" in report
    assert "table here" in report
    assert "Paper numbers" in report
    assert out.read_text() == report


def test_build_report_requires_outputs(tmp_path):
    empty = tmp_path / "results"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        build_report(empty, output=None)
