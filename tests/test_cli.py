"""Tests for the command-line interface."""

import inspect

import pytest

from repro.cli import DESCRIPTIONS, EXPERIMENTS, Driver, build_parser, main


def test_every_experiment_has_a_description():
    assert set(EXPERIMENTS) == set(DESCRIPTIONS)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_lists_valid_names(capsys):
    assert main(["figNaN"]) == 2
    err = capsys.readouterr().err
    assert "figNaN" in err
    for name in EXPERIMENTS:
        assert name in err


def test_parser_accepts_resilience_flags():
    args = build_parser().parse_args(
        ["fig02", "--resume", "--keep-going", "--check-invariants",
         "--seed", "7", "--campaign-dir", ""]
    )
    assert args.resume and args.keep_going and args.check_invariants
    assert args.seed == 7
    assert args.campaign_dir == ""


def test_db_experiment_end_to_end(capsys, tmp_path):
    out_file = tmp_path / "db.txt"
    code = main([
        "db", "--mixes", "1", "--quanta", "1",
        "--out", str(out_file),
        "--campaign-dir", str(tmp_path / "campaign"),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_err%" in printed
    assert "campaign db:" in printed
    assert out_file.read_text().strip()
    assert (tmp_path / "campaign" / "db" / "runs.jsonl").exists()


def test_cli_resume_reuses_checkpoints(capsys, tmp_path):
    argv = [
        "db", "--mixes", "1", "--quanta", "1",
        "--campaign-dir", str(tmp_path / "campaign"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "1 resumed" in second
    # The resumed table is byte-for-byte the freshly computed one.
    assert first.split("\n[db finished")[0] == second.split("\n[db finished")[0]


def test_cli_seed_changes_mixes(capsys, tmp_path):
    base = ["db", "--mixes", "1", "--quanta", "1",
            "--campaign-dir", str(tmp_path / "c")]
    assert main(base + ["--seed", "1"]) == 0
    one = capsys.readouterr().out
    assert main(base + ["--seed", "2"]) == 0
    two = capsys.readouterr().out
    assert one.split("finished in")[0] != two.split("finished in")[0]


def test_fig11_experiment_runs(capsys, tmp_path):
    assert main(["fig11", "--quanta", "1",
                 "--campaign-dir", str(tmp_path / "c")]) == 0
    assert "naive-qos" in capsys.readouterr().out


def test_cli_fidelity_flag_warns_when_unsupported(capsys, tmp_path):
    code = main([
        "fig11", "--quanta", "1",
        "--fidelity", "analytical",
        "--campaign-dir", str(tmp_path / "c"),
    ])
    assert code == 0
    assert "does not support --fidelity" in capsys.readouterr().err


def test_every_experiment_binds_every_flag():
    # A flag reaches a driver only when its run() takes it, so no driver
    # gets an unexpected keyword (fig01 and table3 take no 'quanta').
    flags = dict(mixes=2, quanta=1, seed=3, campaign=object(), workers=2,
                 telemetry=object(), fidelity="analytical")
    for driver in EXPERIMENTS.values():
        kwargs = driver.kwargs(**flags)
        inspect.signature(driver.run).bind(**kwargs)
        taken = {driver.param(flag) for flag in flags} - {""}
        assert set(kwargs) == taken | set(driver.fixed)


def test_ignored_flags_warn_once_each(capsys, monkeypatch):
    class Table:
        def format_table(self):
            return "table"

    def run(quanta=1):
        return Table()

    monkeypatch.setitem(EXPERIMENTS, "fig01", Driver(run))
    assert main(["fig01", "--quanta", "2", "--mixes", "3", "--resume",
                 "--fidelity", "analytical", "--campaign-dir", ""]) == 0
    no_campaign = "running without checkpoints, retries or checks"
    assert capsys.readouterr().err.splitlines() == [
        f"repro: 'fig01' does not support {option}; {fallback}."
        for option, fallback in (
            ("--mixes", "running its default workloads"),
            ("--fidelity", "running at the configured engine's tier"),
            ("--campaign-dir", no_campaign),
            ("--resume", no_campaign),
        )
    ]


def test_parser_accepts_retry_flags():
    args = build_parser().parse_args(
        ["fig02", "--max-retries", "2", "--retry-backoff", "0.01",
         "--cell-budget", "5"]
    )
    assert args.max_retries == 2
    assert args.retry_backoff == 0.01
    assert args.cell_budget == 5.0


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--mixes", "-2"),
        ("--quanta", "-1"),
        ("--workers", "0"),
        ("--wall-clock-budget", "-1"),
        ("--wall-clock-budget", "0"),
        ("--cell-budget", "0"),
        ("--max-retries", "-1"),
        ("--retry-backoff", "-0.5"),
    ],
)
def test_parser_rejects_out_of_range_numbers(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["db", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_parser_accepts_boundary_numbers():
    args = build_parser().parse_args(
        ["db", "--mixes", "0", "--quanta", "0", "--workers", "1",
         "--max-retries", "0", "--retry-backoff", "0"]
    )
    assert (args.mixes, args.quanta, args.workers) == (0, 0, 1)
    assert (args.max_retries, args.retry_backoff) == (0, 0.0)


def test_list_includes_campaign_verbs(capsys):
    assert main(["list"]) == 0
    assert "campaign" in capsys.readouterr().out


def test_campaign_verb_dispatches(capsys, tmp_path):
    # Unknown directory: the durability CLI owns the error path.
    assert main(["campaign", "verify", str(tmp_path / "nope")]) == 2
    assert "no such store" in capsys.readouterr().err


def test_campaign_verify_after_experiment(capsys, tmp_path):
    campaign_dir = tmp_path / "campaign"
    assert main(["db", "--mixes", "1", "--quanta", "1",
                 "--campaign-dir", str(campaign_dir)]) == 0
    capsys.readouterr()
    assert main(["campaign", "verify", str(campaign_dir)]) == 0
    out = capsys.readouterr().out
    assert "intact" in out and "DAMAGED" not in out
