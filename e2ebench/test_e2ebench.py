"""Self-tests of the benchmark's own logic.

    python3 -m pytest e2ebench/test_e2ebench.py -q

Span arithmetic and the coverage gate run on synthetic spans with a fake
clock; the digest and reporting checks run on synthetic worker reports;
the last tests start the real benchmark in smoke mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class FakeEngine:
    """Just enough of ``repro.engine.Engine`` to trace: a callback queue."""

    def __init__(self) -> None:
        self.queue = []

    def schedule(self, delay, callback):
        self.queue.append(callback)

    def schedule_at(self, when, callback):
        self.queue.append(callback)

    def run(self):
        while self.queue:
            self.queue.pop(0)()


def _span(tracer, clock, name, body=lambda: None, before=0.0, after=0.0):
    """Call a traced function that ticks ``before``, runs ``body``, ticks ``after``."""
    def fn():
        clock.tick(before)
        body()
        clock.tick(after)
    return tracing._traced(tracer.log, fn, name)()


def test_exclusive_time_of_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def child():
        _span(tracer, clock, "mem.sched", before=3.0)

    _span(tracer, clock, tracing.ROOT, before=1.0, after=4.0,
          body=lambda: _span(tracer, clock, "mem.enqueue", before=2.0, body=child))
    exclusive, inclusive, count = tracer.log.totals()
    assert inclusive[tracing.ROOT] == 10.0
    assert exclusive == {tracing.ROOT: 5.0, "mem.enqueue": 2.0, "mem.sched": 3.0}
    assert inclusive["mem.enqueue"] == 5.0
    assert count == {tracing.ROOT: 1, "mem.enqueue": 1, "mem.sched": 1}


def test_callback_scheduled_inside_a_span_is_a_child_of_the_engine():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer._wrap_schedule(FakeEngine)
    tracer._span_method(FakeEngine, "run", "engine.run")
    engine = FakeEngine()

    def core_step():
        clock.tick(7.0)
    core_step.__module__ = "repro.cpu.core"  # owner_span names it cpu.callback

    def enqueue():
        engine.schedule(1, core_step)  # runs later, under engine.run

    def body():
        _span(tracer, clock, "mem.enqueue", before=1.0, body=enqueue)
        _span(tracer, clock, "engine.run", body=engine.run, after=2.0)

    _span(tracer, clock, tracing.ROOT, body=body)
    exclusive, inclusive, _ = tracer.log.totals()
    assert exclusive["mem.enqueue"] == 1.0  # the callback's time is not its own
    assert exclusive["cpu.callback"] == 7.0
    assert exclusive["engine.run"] == 2.0
    log = tracer.log
    (cb,) = [i for i in range(len(log)) if log.names[log.name[i]] == "cpu.callback"]
    assert log.names[log.name[log.parent[cb]]] == "engine.run"
    metrics = tracer.layer_metrics()
    assert metrics["engine.events"] == 1
    assert metrics["cpu.self_s"] == 7.0
    assert metrics["trace.coverage"] == 1.0


def _traced_report(layers, host_speed=1.0):
    return {"traced": True, "setup_s": 0.5, "wall_s": 2.0, "peak_rss_mb": 30.0,
            "cells": 1, "attempted": 1, "digests": {"c": "d"}, "failed": {},
            "instructions": 1000, "asm_err_pct": 9.0, "layers": layers,
            "host_speed": host_speed}


def _plain_report(digests=None, failed=None, host_speed=1.0):
    return {"traced": False, "setup_s": 0.5, "wall_s": 1.0, "peak_rss_mb": 30.0,
            "cells": 1, "attempted": 1, "digests": digests or {"c": "d"},
            "failed": failed or {}, "instructions": 1000, "asm_err_pct": 9.0,
            "host_speed": host_speed}


def test_host_times_are_read_at_the_reference_speed():
    # A run on a host at half the reference speed took twice as long.
    runs = run.WorkloadRuns("cell-mem", 1, {"c": "d"})
    runs.add_setup({"setup_s": 0.6, "host_speed": 0.5})
    runs.add_pair(_plain_report(host_speed=0.5),
                  _traced_report({"mem.self_s": 1.0, "mem.requests": 10}, host_speed=0.25))
    samples = runs.end_to_end()
    assert samples["raw_wall_s"] == [1.0]
    assert samples["wall_s"] == [0.5]
    assert samples["setup_s"] == [0.3]
    assert samples["cells_per_s"] == [2.0]
    layers = runs.per_layer()
    assert layers["mem.self_s"] == [0.25] and layers["mem.requests"] == [10]
    assert layers["trace.overhead"] == [1.0]


def test_probe_reads_cpu_time_of_fixed_work():
    assert run.probe_kernel() == run.probe_kernel()
    assert 0 < run.probe() < 1.0


def _coverage_of(tree):
    """Coverage of a synthetic run: ``tree`` is (name, self_s, children)."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def call(node):
        name, self_s, children = node
        _span(tracer, clock, name, before=self_s,
              body=lambda: [call(c) for c in children])

    call((tracing.ROOT, 0.0, [tree]))
    return tracer.layer_metrics()


def test_coverage_does_not_count_catch_all_spans():
    # The quantum span wraps the whole call but explains none of it.
    layers = _coverage_of(("runner.quantum", 8.0, [
        ("engine.run", 1.0, [("cpu.callback", 1.0, [])]),
    ]))
    assert layers["trace.coverage"] == pytest.approx(0.2)
    runs = run.WorkloadRuns("cell-mem", 1, {"c": "d"})
    runs.add_pair(_plain_report(), _traced_report(layers))
    result = run.result_line({"cell-mem": runs}, True, BENCH)
    assert result["failed"] == 0
    assert result["correct"] is False


def test_coverage_passes_when_layers_explain_the_wall():
    layers = _coverage_of(("runner.quantum", 0.2, [
        ("engine.run", 4.0, [("mem.issue", 3.0, []), ("models.asm", 2.8, [])]),
    ]))
    assert layers["trace.coverage"] == pytest.approx(0.98)
    runs = run.WorkloadRuns("cell-mem", 1, {"c": "d"})
    runs.add_pair(_plain_report(), _traced_report(layers))
    assert run.result_line({"cell-mem": runs}, True, BENCH)["correct"] is True


def test_perturbed_digest_counts_in_failed_frac():
    runs = run.WorkloadRuns("sweep-fig02", 1, {"mix000": "aa", "mix001": "bb"})
    runs.add(_plain_report(digests={"mix000": "aa", "mix001": "bb"}))
    runs.add(_plain_report(digests={"mix000": "aa", "mix001": "bX"}))
    assert runs.failed == 1
    assert "mix001" in runs.failures[0] and "bX" in runs.failures[0]
    assert runs.end_to_end()["failed_frac"] == [0.5]
    result = run.result_line({"sweep-fig02": runs}, False, BENCH)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_unpinned_seed_compares_every_run_with_the_first():
    runs = run.WorkloadRuns("cell-mem", 7, None)
    runs.add(_plain_report(digests={"c": "d"}))
    runs.add(_plain_report(digests={"c": "d"}))
    assert runs.failed == 0
    runs.add(_plain_report(digests={"c": "e"}))
    assert runs.failed == 1


def test_captured_failure_and_crash_count_as_failed():
    runs = run.WorkloadRuns("fleet-analytic", 1, {"c": "d", "fleet": "f"})
    runs.add(_plain_report(digests={"fleet": "f"}, failed={"c": "RunFailure: boom"}))
    runs.add({"error": "worker exited 1"})
    assert runs.failed == 3  # one captured cell, two cells of the crashed run
    assert any("c: RunFailure" in f for f in runs.failures)


def test_every_metric_printed_with_name_and_unit():
    runs = run.WorkloadRuns("cell-mem", 1, {"c": "d"})
    runs.add_setup({"setup_s": 0.4, "host_speed": 1.0})
    runs.add(_plain_report())
    text = "\n".join(run.table(runs, False))
    for metric in run.END_TO_END:
        line = next(l for l in text.splitlines() if l.startswith(metric.name + " "))
        assert f" {metric.unit} " in line
    result = run.result_line({"cell-mem": runs}, False, BENCH)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for metric in run.END_TO_END:
        if metric.name in declared:
            assert declared[metric.name] == metric.unit
    for metric in BENCH["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"]), metric["name"]


def test_traced_result_names_every_per_layer_metric():
    layers = _coverage_of(("engine.run", 1.0, []))
    runs = run.WorkloadRuns("cell-mem", 1, {"c": "d"})
    runs.add_pair(_plain_report(), _traced_report(layers))
    result = run.result_line({"cell-mem": runs}, True, BENCH)
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    names = set(layers) | {"trace.overhead", "models.asm_err_pct", "campaign.cells",
                           "campaign.retries", "campaign.failures", "cloud.rounds"}
    assert {m["name"] for m in BENCH["per_layer"]} <= names


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_smoke_mode_runs_every_workload():
    proc = _bench(["--workload", "all", "--smoke", "--seconds", "1"], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for metric in BENCH["end_to_end"]:
            assert result["metrics"][f"{workload}.{metric['name']}"]["value"] > 0


def test_smoke_trace_of_cell_mem_is_covered_and_passive():
    proc = _bench(["--workload", "cell-mem", "--smoke", "--seconds", "1",
                   "--trace", "1"], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2  # untraced + traced
    assert result["metrics"]["trace.coverage"]["value"] >= run.MIN_CELL_COVERAGE


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "cell-mem", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
