"""Store-maintenance CLI verbs: ``repro campaign verify|repair|compact``.

All three operate on a campaign store directory — either one
experiment's store (``results/.campaign/fig09``) or the campaign root
(``results/.campaign``, every experiment under it):

* ``verify`` — scan every ``*.jsonl`` file and report damage (torn
  tails, checksum mismatches, sequence gaps). Exit 0 when every file is
  intact, 1 when anything needs repair. Read-only.
* ``repair`` — truncate torn tails, quarantine damaged records to
  ``<file>.quarantine``, upgrade legacy (v1) records to checksummed
  envelopes, rewrite atomically, delete the temp files of rewrites
  killed before their replace. Exit 0 (a subsequent ``verify`` must
  pass).
* ``compact`` — repair plus last-record-wins deduplication by each
  record's resume ``key`` (superseded checkpoints from re-runs are
  dropped; keyless records, e.g. failures, are kept).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional

from repro.durability.store import (
    QUARANTINE_SUFFIX,
    compact_log,
    repair_log,
    verify_log,
)


def _store_files(root: str) -> List[str]:
    """Every campaign JSONL file under ``root`` (quarantines excluded)."""
    found: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".jsonl") and not name.endswith(
                QUARANTINE_SUFFIX
            ):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def _record_key(payload: Any) -> Optional[str]:
    """Resume key of one campaign payload (``None`` = always keep).

    Run/alone/metrics records all carry their resume key in ``key``;
    failure records are an append-only history with no key.
    """
    if isinstance(payload, dict):
        key = payload.get("key")
        if isinstance(key, str):
            return key
    return None


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro campaign ...`` verb family."""
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Verify, repair or compact campaign checkpoint stores.",
    )
    parser.add_argument(
        "verb",
        choices=("verify", "repair", "compact"),
        help="verify: report damage (read-only); repair: fix it; "
        "compact: repair + drop superseded records",
    )
    parser.add_argument(
        "store",
        nargs="?",
        default=os.path.join("results", ".campaign"),
        help="store directory (an experiment dir or the campaign root; "
        "default: results/.campaign)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(args.store):
        sys.stderr.write(f"repro campaign: no such store: {args.store}\n")
        return 2
    files = _store_files(args.store)
    if not files:
        print(f"{args.store}: no store files")
        return 0

    damaged = 0
    for path in files:
        rel = os.path.relpath(path, args.store)
        if args.verb == "verify":
            report = verify_log(path)
            print(f"{rel}: {report.summary().split(': ', 1)[1]}")
            if report.damaged:
                damaged += 1
        elif args.verb == "repair":
            result = repair_log(path)
            print(f"{rel}: {result.summary().split(': ', 1)[1]}")
        else:  # compact
            result = compact_log(path, _record_key)
            print(f"{rel}: {result.summary().split(': ', 1)[1]}")

    if args.verb == "verify":
        if damaged:
            print(f"{damaged} of {len(files)} file(s) DAMAGED "
                  "(run 'repro campaign repair')")
            return 1
        print(f"all {len(files)} file(s) intact")
    return 0


__all__ = ["campaign_main"]
