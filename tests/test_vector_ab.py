"""Tests for the ``repro bench`` verbs and the BENCH JSON capture file."""

import json

import pytest

from repro.cli import main as cli_main
from repro.perfbench import BenchFileError, bench_main, merge_files, merge_results


def test_cli_list_mentions_bench(capsys):
    assert cli_main(["list"]) == 0
    assert "bench" in capsys.readouterr().out


def test_bench_run_micro_only_captures_json(capsys, tmp_path):
    out = tmp_path / "bench.json"
    code = bench_main([
        "run", "--micro-only",
        "--micro-events", "2000",
        "--label", "test", "--notes", "test-host",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["notes"]["test"] == "test-host"
    assert "python" in data["platform"]
    micro = data["engine_microbench"]["test"]
    assert micro["events_per_s"] > 0


def test_bench_compare_reports_ratio(capsys, tmp_path):
    out = tmp_path / "bench.json"
    merge_results(out, "engine_microbench", {"events_per_s": 100.0}, "old")
    merge_results(out, "engine_microbench", {"events_per_s": 300.0}, "new")

    assert bench_main(["compare", "old", "new", "--json", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["events_per_s"]["ratio"] == 3.0

    # Regression gate: after/before below --min-ratio fails.
    assert bench_main([
        "compare", "old", "new", "--json", str(out), "--min-ratio", "5.0",
    ]) == 1
    # Missing labels are a usage error, not a crash.
    assert bench_main(["compare", "old", "nope", "--json", str(out)]) == 2


def test_bench_compare_min_ratio_needs_the_gated_metric(capsys, tmp_path):
    # A wall-time section has no events_per_s: the gate must refuse to
    # pass it instead of passing whatever its numbers are.
    out = tmp_path / "bench.json"
    merge_results(out, "sweep", {"serial_wall_s": 10.0}, "old")
    merge_results(out, "sweep", {"serial_wall_s": 30.0}, "new")
    code = bench_main([
        "compare", "old", "new", "--json", str(out),
        "--section", "sweep", "--min-ratio", "0.9",
    ])
    assert code == 2
    assert "'sweep'" in capsys.readouterr().err
    # Without the gate the comparison itself still works.
    assert bench_main([
        "compare", "old", "new", "--json", str(out), "--section", "sweep",
    ]) == 0


def test_bench_merge_folds_files(capsys, tmp_path):
    a, b, dest = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "all.json"
    merge_results(a, "engine_microbench", {"events_per_s": 1.0}, "hostA")
    merge_results(b, "engine_microbench", {"events_per_s": 2.0}, "hostB")
    merge_results(b, "sweep", {"serial_wall_s": 3.0}, "hostB")
    assert bench_main(["merge", str(a), str(b), "--into", str(dest)]) == 0
    merged = json.loads(dest.read_text())
    assert set(merged["engine_microbench"]) == {"hostA", "hostB"}
    assert "sweep" in merged


def test_corrupt_bench_file_is_never_overwritten(capsys, tmp_path):
    out = tmp_path / "bench.json"
    merge_results(out, "sweep", {"serial_wall_s": 3.0}, "history")
    corrupt = out.read_text()[:-10]  # a truncated write
    out.write_text(corrupt)
    source = tmp_path / "new.json"
    merge_results(source, "engine_microbench", {"events_per_s": 1.0}, "new")

    with pytest.raises(BenchFileError):
        merge_results(out, "engine_microbench", {"events_per_s": 1.0}, "new")
    with pytest.raises(BenchFileError):
        merge_files([source], out)
    assert out.read_text() == corrupt

    for argv in (
        ["run", "--micro-only", "--out", str(out)],
        ["merge", str(source), "--into", str(out)],
        ["compare", "history", "new", "--json", str(out)],
    ):
        assert bench_main(argv) == 2
        assert str(out) in capsys.readouterr().err
    assert out.read_text() == corrupt
