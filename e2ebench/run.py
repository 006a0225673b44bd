"""End-to-end benchmark of the repro simulator (see README.md).

    python3 e2ebench/run.py --workload cell-mem --seed 1 --seconds 40 --trace 0

Runs the named workload (or ``all``, interleaved) in fresh interpreters,
repeating the seed's one input for ``--seconds``. It checks every cell's
result digest against ``pins.json`` (or, for an unpinned seed, against the
first run), prints a table of every metric by name and unit, then, as the
last line, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 1`` pairs each untraced run with a traced run of
the same input and reports the per-layer breakdown instead. Exits non-zero
when a cell fails or its digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: Scratch space inside the checkout: temporary stores and traced spans.
SCRATCH = ROOT / ".e2ebench"
WORKLOADS = ("cell-mem", "sweep-fig02", "fleet-analytic")
#: The seeds whose digests pins.json holds: the default and a held-out one.
PINNED_SEEDS = (1, 2)

#: Set-up-only runs per workload; setup_s is their median.
SETUP_RUNS = 9
#: Seconds one worker may take before it is killed and its cells failed.
WORKER_TIMEOUT_S = 150.0
#: A traced cell-mem run must attribute at least this share of its wall.
MIN_CELL_COVERAGE = 0.95
#: CPU seconds one ``probe_kernel`` call takes at the reference host speed.
#: Host times are reported at that speed (README.md, Host speed).
PROBE_REF_S = 0.0004
#: Sleep between probes while a worker runs: about 2% of one CPU.
PROBE_GAP_S = 0.027


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str  # "host" or "simulated"


#: Every end-to-end metric. BENCHMARK.json gates the ones that are never 0
#: and steady across seeds; README.md says why the others are not gated.
#: Host times are at the reference host speed, except ``raw_wall_s``.
END_TO_END = (
    Metric("wall_s", "s", "lower", "host"),
    Metric("raw_wall_s", "s", "lower", "host"),
    Metric("setup_s", "s", "lower", "host"),
    Metric("sim_kips", "kinst/s", "higher", "host"),
    Metric("cells_per_s", "cells/s", "higher", "host"),
    Metric("peak_rss_mb", "MiB", "lower", "host"),
    Metric("failed_frac", "fraction", "lower", "host"),
    Metric("asm_err_pct", "%", "lower", "simulated"),
)

_COUNTS = (
    "engine.events cpu.callbacks workloads.records system.accesses "
    "cache.llc_accesses cache.ats_accesses mem.requests mem.issues "
    "mem.wakeups policies.calls runner.alone_runs campaign.cells "
    "campaign.retries campaign.failures store.appends cloud.rounds "
    "analytic.profiles"
).split()
_RATIOS = (
    "system.mshr_merge_ratio cache.llc_hit_ratio mem.issue_yield "
    "mem.row_hit_ratio pool.busy_frac analytic.profile_hit_ratio trace.coverage"
).split()


def layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "x"
    if name == "models.asm_err_pct":
        return "%"
    if name in _RATIOS:
        return "ratio"
    if name in _COUNTS or name.endswith(".calls"):
        return "count"
    return "s"


def _percentile_beyond(values: Sequence[float], better: str) -> Optional[Tuple[float, float]]:
    """The highest of p75/p90/p95/p99/p99.9 with >= 10 runs beyond it, on
    the worse side of the distribution, as (percentile, value)."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            rank = int(round(p * 10)) if better == "lower" else int(round((100 - p) * 10))
            return p, cuts[max(0, min(len(cuts) - 1, rank - 1))]
    return None


# ----------------------------------------------------------------------
# Host speed


def probe_kernel(n: int = 1500) -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + 1
        acc ^= key
    return acc


def probe() -> float:
    """CPU seconds of one ``probe_kernel`` call in this process."""
    start = time.process_time()
    probe_kernel()
    return time.process_time() - start


# ----------------------------------------------------------------------
# Workers


def _kill_group(proc: "subprocess.Popen[str]") -> None:
    """Kill a worker and everything it started, and wait for the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):  # pool children are reaped by init; wait them out
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(
    tmp: Path, workload: str, seed: int, *,
    traced: bool = False, smoke: bool = False, setup_only: bool = False,
) -> Dict[str, Any]:
    """One fresh interpreter executing ``workload`` once; its JSON report.

    While the worker runs, this process probes the host's speed on the CPU
    the worker leaves free; ``host_speed`` in the report is
    ``PROBE_REF_S`` over the mean probe time.
    """
    store = tempfile.mkdtemp(prefix="store-", dir=tmp)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--store", store,
    ]
    if traced:
        spans = SCRATCH / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans", str(spans / f"{workload}.spans")]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(tmp))
    probes: List[float] = []
    with tempfile.TemporaryFile("w+", dir=tmp) as out, \
            tempfile.TemporaryFile("w+", dir=tmp) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
            stdout=out, stderr=err, start_new_session=True,
        )
        try:
            while True:
                probes.append(probe())
                if proc.poll() is not None:
                    break
                if time.monotonic() - t0 > WORKER_TIMEOUT_S:
                    _kill_group(proc)
                    return {"error": f"worker exceeded {WORKER_TIMEOUT_S:.0f}s"
                                     " and was killed"}
                time.sleep(PROBE_GAP_S)
        except BaseException:
            # Interrupted: stop the worker and its pool, then re-raise.
            _kill_group(proc)
            raise
        finally:
            shutil.rmtree(store, ignore_errors=True)
        out.seek(0)
        err.seek(0)
        lines = out.read().strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exited {proc.returncode}: {err.read().strip()[-2000:]}"}
    report = json.loads(lines[-1])
    report["host_speed"] = PROBE_REF_S / statistics.fmean(probes)
    return report


# ----------------------------------------------------------------------
# Digest checks and aggregation


def _wall(report: Dict[str, Any]) -> float:
    """A run's wall time at the reference host speed."""
    return report["wall_s"] * report["host_speed"]


@dataclass
class WorkloadRuns:
    """Every run of one workload in this invocation, checked and pooled.

    ``reference`` maps each cell to its pinned digest; for an unpinned seed
    it starts empty and the first clean run sets what later runs must match.
    """

    workload: str
    seed: int
    reference: Optional[Dict[str, str]]
    setups: List[float] = field(default_factory=list)
    untraced: List[Dict[str, Any]] = field(default_factory=list)
    traced: List[Dict[str, Any]] = field(default_factory=list)
    overheads: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, report: Dict[str, Any], expected: Optional[Dict[str, str]]) -> None:
        """Count ``report``'s cells and fail every divergent one by name."""
        label = f"{self.workload} seed={self.seed}"
        if report.get("traced"):
            label += " traced"
        if "error" in report:
            cells = len(expected) if expected else 1
            self.attempted += cells
            self.failures += [f"{label}: run failed: {report['error']}"] * cells
            return
        self.attempted += report["attempted"]
        failed = dict(report["failed"])
        digests = report["digests"]
        if expected is None:
            if not failed:
                self.reference = dict(digests)
        else:
            for cell in sorted(set(expected) | set(digests)):
                got, want = digests.get(cell), expected.get(cell)
                if cell in failed or got == want:
                    continue
                failed[cell] = (
                    f"digest {got} != expected {want}" if got and want
                    else "missing" if want else "not expected"
                )
        for cell, reason in sorted(failed.items()):
            self.failures.append(f"{label} cell {cell}: {reason}")

    def add_setup(self, report: Dict[str, Any]) -> None:
        self.setups.append(report["setup_s"] * report["host_speed"])

    def add(self, report: Dict[str, Any]) -> None:
        self.check(report, self.reference)
        self.untraced.append(report)

    def add_pair(self, plain: Dict[str, Any], traced: Dict[str, Any]) -> None:
        self.add(plain)
        # Tracing is passive: the traced digests must equal the untraced.
        self.check(traced, self.reference or plain.get("digests"))
        self.traced.append(traced)
        if "error" not in plain and "error" not in traced:
            self.overheads.append(_wall(traced) / _wall(plain))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> Dict[str, List[float]]:
        """Per-run samples of every end-to-end metric."""
        ok = [r for r in self.untraced if "error" not in r]
        samples: Dict[str, List[float]] = {
            "wall_s": [_wall(r) for r in ok],
            "raw_wall_s": [r["wall_s"] for r in ok],
            "setup_s": list(self.setups),
            "sim_kips": [r["instructions"] / _wall(r) / 1000.0 for r in ok],
            "cells_per_s": [r["cells"] / _wall(r) for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "asm_err_pct": [r["asm_err_pct"] for r in ok if r["asm_err_pct"] is not None],
        }
        samples["failed_frac"] = [self.failed / self.attempted] if self.attempted else []
        return samples

    def per_layer(self) -> Dict[str, List[float]]:
        """Per-run samples of every per-layer metric (traced runs)."""
        ok = [r for r in self.traced if "error" not in r]
        names = sorted({k for r in ok for k in r["layers"]})
        samples = {
            k: [r["layers"].get(k, 0.0) * (r["host_speed"] if k.endswith("_s") else 1.0)
                for r in ok]
            for k in names
        }
        samples["trace.overhead"] = list(self.overheads)
        samples["models.asm_err_pct"] = [
            r["asm_err_pct"] for r in ok if r["asm_err_pct"] is not None
        ]
        return samples


def load_pins(workload: str, seed: int, smoke: bool) -> Optional[Dict[str, str]]:
    """The pinned digests of ``workload`` at ``seed``, if that seed is pinned."""
    if smoke:
        return None  # smoke inputs are smaller than the pinned ones
    if not PINS.is_file():
        raise BenchError(f"{PINS} is missing; regenerate it with --write-pins")
    pins = json.loads(PINS.read_text())
    return pins["digests"].get(workload, {}).get(str(seed))


def measure(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
            smoke: bool, tmp: Path) -> Dict[str, WorkloadRuns]:
    """Interleave fresh-interpreter runs of ``workloads`` for ``seconds``."""
    runs = {w: WorkloadRuns(w, seed, load_pins(w, seed, smoke)) for w in workloads}
    deadline = time.monotonic() + seconds
    for w in workloads:
        # The first run after a checkout compiles bytecode: not a sample.
        for i in range(SETUP_RUNS + 1):
            report = run_worker(tmp, w, seed, smoke=smoke, setup_only=True)
            if "error" in report:
                raise BenchError(f"cannot set up {w}: {report['error']}")
            if i:
                runs[w].add_setup(report)
    round_s: List[float] = []
    r = 0
    while True:
        start = time.monotonic()
        for w in workloads:
            if not trace:
                runs[w].add(run_worker(tmp, w, seed, smoke=smoke))
                continue
            # Alternate which side of a pair runs first, so drift is shared.
            first, second = (False, True) if r % 2 == 0 else (True, False)
            a = run_worker(tmp, w, seed, traced=first, smoke=smoke)
            b = run_worker(tmp, w, seed, traced=second, smoke=smoke)
            plain, traced = (a, b) if second else (b, a)
            runs[w].add_pair(plain, traced)
        r += 1
        round_s.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(round_s) > deadline:
            return runs


# ----------------------------------------------------------------------
# Reporting


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def table(runs: WorkloadRuns, trace: bool) -> List[str]:
    lines = [f"== {runs.workload} (seed {runs.seed}) =="]
    if trace:
        lines.append(f"{'metric':28s} {'unit':8s} {'median':>12s} {'runs':>5s}")
        for name, values in sorted(runs.per_layer().items()):
            if values:
                lines.append(
                    f"{name:28s} {layer_unit(name):8s} "
                    f"{_fmt(statistics.median(values)):>12s} {len(values):>5d}"
                )
        return lines
    lines.append(
        f"{'metric':12s} {'unit':9s} {'better':6s} {'kind':9s} "
        f"{'median':>11s} {'tail':>18s} {'runs':>5s}"
    )
    samples = runs.end_to_end()
    for metric in END_TO_END:
        values = samples[metric.name]
        if not values:
            lines.append(f"{metric.name:12s} {metric.unit:9s} {'n/a (no value on this workload)':>40s}")
            continue
        tail = _percentile_beyond(values, metric.better)
        tail_text = f"p{tail[0]:g}={_fmt(tail[1])}" if tail else "n/a (<11 runs)"
        lines.append(
            f"{metric.name:12s} {metric.unit:9s} {metric.better:6s} {metric.kind:9s} "
            f"{_fmt(statistics.median(values)):>11s} {tail_text:>18s} {len(values):>5d}"
        )
    return lines


def result_line(all_runs: Dict[str, WorkloadRuns], trace: bool,
                bench: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON result object; ``correct`` is false if any check failed.

    A layer a workload never reaches reads 0; an end-to-end metric with no
    sample (every run failed) also reads 0, with ``correct`` false.
    """
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    correct = True
    for workload, runs in all_runs.items():
        samples = runs.per_layer() if trace else runs.end_to_end()
        prefix = "" if len(all_runs) == 1 else workload + "."
        for metric in declared:
            values = samples.get(metric["name"]) or [0.0]
            metrics[prefix + metric["name"]] = {
                "value": statistics.median(values), "unit": metric["unit"],
            }
        if trace and workload == "cell-mem":
            cover = statistics.median(samples.get("trace.coverage") or [0.0])
            if cover < MIN_CELL_COVERAGE:
                print(f"e2ebench: cell-mem trace coverage {cover:.3f}"
                      f" < {MIN_CELL_COVERAGE}", file=sys.stderr)
                correct = False
    attempted = sum(r.attempted for r in all_runs.values())
    failed = sum(r.failed for r in all_runs.values())
    return {"correct": correct and failed == 0 and attempted > 0,
            "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Pins


def write_pins(tmp: Path) -> int:
    """Run every pinned input twice; write pins.json if each pair agrees."""
    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            a, b = (run_worker(tmp, workload, seed) for _ in range(2))
            for report in (a, b):
                if "error" in report or report["failed"]:
                    print(f"e2ebench: {workload} seed={seed} failed:"
                          f" {report.get('error') or report['failed']}", file=sys.stderr)
                    return 1
            if a["digests"] != b["digests"]:
                print(f"e2ebench: {workload} seed={seed} is not deterministic",
                      file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = a["digests"]
            print(f"pinned {workload} seed={seed}: {len(a['digests'])} cells", flush=True)
    PINS.write_text(json.dumps(
        {"seeds": list(PINNED_SEEDS), "digests": digests}, indent=1, sort_keys=True,
    ) + "\n")
    return 0


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: each workload runs in seconds (no pins)")
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate pins.json for the pinned seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.write_pins:
            return write_pins(tmp)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        all_runs = measure(workloads, args.seed, args.seconds, bool(args.trace),
                           args.smoke, tmp)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for runs in all_runs.values():
        print("\n".join(table(runs, bool(args.trace))))
        for failure in runs.failures:
            print(f"e2ebench: FAILED {failure}", file=sys.stderr)
    result = result_line(all_runs, bool(args.trace), bench)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
