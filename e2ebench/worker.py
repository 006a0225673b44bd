"""One benchmark run: a fresh interpreter executing one workload once.

Started by ``run.py``; prints one JSON object on stdout. ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, ``repro`` imports and input
generation, up to the first call into the program. ``--setup-only`` stops
there, so a run can sample set-up time more often than the workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_repro() -> None:
    """Import ``repro`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")


def peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--store", required=True, help="fresh campaign store dir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="", help="write traced spans here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s and exit")
    args = parser.parse_args(argv)

    _import_repro()
    from workloads import WORKLOADS
    from tracing import Tracer

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.store)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    call = workload.call
    hooks = ()
    if tracer is not None:
        tracer.install()
        call = tracer.root(call)
        hooks = (tracer.trace_listeners,)
    error = None
    start = time.perf_counter()
    try:
        call(hooks)
    except Exception:  # reported as failed cells, never hidden
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if error is not None:
        report["error"] = error
    else:
        outcome = workload.outcome()
        report.update(
            cells=outcome.cells,
            attempted=outcome.attempted,
            digests=outcome.digests,
            failed=outcome.failed,
            instructions=outcome.instructions,
            asm_err_pct=outcome.asm_err_pct,
        )
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers.update(outcome.layers)
            report["layers"] = layers
            if args.spans:
                tracer.log.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
