"""Command-line driver: ``repro-lint`` / ``python -m repro.lintkit``.

Exit codes: 0 clean (or every finding suppressed by an inline
``# lint: ignore[RULE]`` comment, the one way to waive a finding),
1 findings (or wall-time budget exceeded), 2 usage or internal error.

The tree is parsed exactly once: per-file rules run per module, then the
whole-program rule (NDT001) runs over one
:class:`~repro.lintkit.flow.project.Project` built from every parsed
file. ``--changed-only`` still parses the full tree — project rules need
the whole symbol table to resolve calls — and only *reports* findings in
files changed relative to a git ref, so PR lint stays fast to read while
staying whole-program sound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.lintkit.base import (
    Finding,
    all_rules,
    lint_parsed,
    parse_paths,
)

#: Finding severity -> SARIF result level (they coincide by design).
_SARIF_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based simulator-invariant linter for the ASM reproduction "
            "(determinism, integer cycle accounting, hits+misses==accesses "
            "conservation, picklable parallel payloads and whole-program "
            "nondeterminism taint)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human",
        help="output format",
    )
    parser.add_argument(
        "--changed-only", metavar="REF", nargs="?", const="HEAD",
        default=None,
        help=(
            "report findings only in files changed vs the given git ref "
            "(default HEAD); the whole tree is still parsed so "
            "whole-program rules resolve across unchanged files"
        ),
    )
    parser.add_argument(
        "--budget-seconds", type=float, metavar="S", default=None,
        help=(
            "fail (exit 1) if parsing + linting takes longer than S "
            "seconds of wall time — CI's guard on analysis cost"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line on success",
    )
    return parser


def _list_rules() -> int:
    for code, rule_cls in sorted(all_rules().items()):
        gate = ", ".join(rule_cls.packages) if rule_cls.packages else "all files"
        print(f"{code}  [{rule_cls.severity}]  {rule_cls.summary}")
        print(f"        gated to: {gate}")
    return 0


def _changed_files(ref: str) -> Optional[Set[str]]:
    """Absolute paths of files changed vs ``ref`` (None on git failure)."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=ACMR", ref],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    changed = {
        os.path.abspath(line.strip())
        for line in proc.stdout.splitlines()
        if line.strip()
    }
    # Untracked files are changes too (git diff does not list them).
    try:
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True,
            text=True,
            check=True,
        )
        changed.update(
            os.path.abspath(line.strip())
            for line in untracked.stdout.splitlines()
            if line.strip()
        )
    except (OSError, subprocess.CalledProcessError):
        pass
    return changed


def sarif_report(findings: Sequence[Finding]) -> Dict[str, object]:
    """A SARIF 2.1.0 log for GitHub code scanning upload."""
    rules = all_rules()
    used = sorted({f.rule for f in findings} & set(rules))
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": [
                            {
                                "id": code,
                                "shortDescription": {
                                    "text": rules[code].summary
                                },
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS.get(
                                        rules[code].severity, "error"
                                    )
                                },
                            }
                            for code in used
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "level": _SARIF_LEVELS.get(f.severity, "error"),
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": f.path.replace(os.sep, "/")
                                    },
                                    "region": {
                                        "startLine": max(f.line, 1),
                                        "startColumn": f.col + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for f in findings
                ],
            }
        ],
    }


def _emit(
    findings: Sequence[Finding],
    fmt: str,
    scanned: int,
    quiet: bool,
) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_json() for f in findings],
                    "files_scanned": scanned,
                },
                indent=2,
            )
        )
        return
    if fmt == "sarif":
        print(json.dumps(sarif_report(findings), indent=2))
        return
    for finding in findings:
        print(finding.render())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"\nrepro-lint: {len(findings)} {noun} in {scanned} files", file=sys.stderr)
    elif not quiet:
        print(f"repro-lint: clean — {scanned} files", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    select: Optional[List[str]] = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
        unknown = set(select) - set(all_rules())
        if unknown:
            print(
                f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr
        )
        return 2

    changed: Optional[Set[str]] = None
    if args.changed_only is not None:
        changed = _changed_files(args.changed_only)
        if changed is None:
            print(
                "repro-lint: --changed-only requires a git checkout and "
                f"a valid ref (got {args.changed_only!r})",
                file=sys.stderr,
            )
            return 2

    started = time.monotonic()
    parsed = parse_paths(args.paths)
    findings = lint_parsed(parsed, select=select)
    elapsed = time.monotonic() - started
    scanned = len(parsed)

    if changed is not None:
        findings = [
            f for f in findings if os.path.abspath(f.path) in changed
        ]

    _emit(findings, args.format, scanned, args.quiet)
    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        print(
            f"repro-lint: wall-time budget exceeded: {elapsed:.2f}s > "
            f"{args.budget_seconds:.2f}s over {scanned} files",
            file=sys.stderr,
        )
        return 1
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
