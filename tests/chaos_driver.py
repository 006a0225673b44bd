"""Subprocess driver for the chaos kill/resume tests.

Runs a tiny but real campaign (two 2-core mixes, one quantum each)
against a store directory and prints one line of canonical JSON — the
full serialized results — to stdout. The parent test harness runs this
driver three ways:

* clean, serial: the baseline digest;
* under ``REPRO_CHAOS`` with a kill plan (optionally ``--workers 2`` so
  the kill lands mid-parallel-campaign): the process dies by SIGKILL at
  the planned crash point, leaving a possibly-torn store behind;
* again on the same store with ``--resume``: must exit 0 and print a
  digest bit-identical to the baseline.

Determinism end to end is the point: every digest printed by this
driver for the same arguments must be byte-equal, no matter how many
times the campaign crashed and resumed in between.
"""

import argparse
import json
import sys

from repro.config import scaled_config
from repro.durability.retry import RetryPolicy
from repro.parallel import CellSpec
from repro.resilience.campaign import Campaign, result_to_json
from repro.resilience.inject import exploding_model_factories
from repro.workloads.mixes import make_mix

CONFIG = scaled_config().with_quantum(50_000, 5_000)


def build_mixes():
    return [
        make_mix(["mcf", "bzip2"], seed=11),
        make_mix(["ft", "libquantum"], seed=12),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", help="campaign store directory")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quanta", type=int, default=1)
    parser.add_argument(
        "--faults",
        action="store_true",
        help="profile cells (appends to metrics.jsonl) and run an extra "
        "deterministically-failing mix whose give-up record lands in "
        "failures.jsonl — so the kill matrix can tear those stores too",
    )
    args = parser.parse_args(argv)

    config = CONFIG
    mixes = build_mixes()
    if args.faults:
        campaign = Campaign(
            "chaos_drill",
            args.store,
            resume=args.resume,
            keep_going=True,
            profile=True,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
    else:
        campaign = Campaign("chaos_drill", args.store, resume=args.resume)
    if args.workers > 1:
        cells = [
            CellSpec(mix=mix, config=config, quanta=args.quanta)
            for mix in mixes
        ]
        results = campaign.run_cells(cells, workers=args.workers)
    else:
        results = [
            campaign.run_mix(mix, config, quanta=args.quanta) for mix in mixes
        ]
    if args.faults:
        # A mix whose model raises at quantum 0, every attempt: the
        # supervisor retries once, the breaker proves the failure
        # deterministic, and the give-up appends to failures.jsonl.
        results += campaign.run_cells([
            CellSpec(
                mix=make_mix(["mcf", "bzip2"], seed=13),
                config=config,
                quanta=args.quanta,
                variant="faulty",
                recipe=exploding_model_factories,
                recipe_args=(0,),
            )
        ])
    digest = [
        result_to_json(result) if result is not None else None
        for result in results
    ]
    print(json.dumps(digest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
