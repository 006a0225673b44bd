"""Tests for the analysis package (paper targets, report)."""

import pytest

from repro.analysis.paper_targets import PAPER_TARGETS, target_for
from repro.analysis.report import _FILE_TO_TARGET, build_report


def test_paper_targets_cover_every_experiment_file():
    for stem, key in _FILE_TO_TARGET.items():
        if key is not None:
            assert key in PAPER_TARGETS, stem


def test_target_for():
    fig3 = target_for("fig03")
    assert fig3 is not None
    assert fig3.numbers["ptca"] == pytest.approx(40.4)
    assert target_for("unknown") is None


def test_headline_paper_numbers():
    """Pin the transcribed headline numbers (typo guard)."""
    assert PAPER_TARGETS["fig02"].numbers == {
        "asm": 9.0, "ptca": 14.7, "fst": 18.5
    }
    assert PAPER_TARGETS["sec64"].numbers["mise"] == 22.0
    assert PAPER_TARGETS["fig04"].numbers["asm_max"] == 36.0


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
