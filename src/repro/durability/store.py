"""Checksummed JSONL logs with torn-tail recovery and quarantine.

Store format v2: the first line of a file is a header record

.. code-block:: json

    {"__repro_store__": "jsonl", "version": 2}

and every subsequent line is an *envelope* around the caller's payload

.. code-block:: json

    {"seq": 7, "sha": "<sha256[:16] of canonical payload JSON>", "payload": {...}}

``seq`` is a per-file monotonic sequence number (gaps reveal lost
records, regressions reveal mixed-up files); ``sha`` detects any bit
damage to the payload. Files written before v2 (bare payload lines, no
header) load transparently as *legacy* records — the format is
recognised per line, so a v1 store keeps resuming and is upgraded
record-by-record as new appends land.

Reading is non-destructive and total: :func:`read_log` returns every
intact payload plus a :class:`DamageReport`. Three kinds of damage are
distinguished and handled differently:

* **torn tail** — the final line does not parse (interrupted append):
  recoverable by truncation, the record was never durably committed;
* **corrupt line** — a non-final line does not parse or an envelope's
  checksum does not match its payload: the record is *quarantined* (to
  ``<file>.quarantine``) rather than deleted, so repair never loses
  bytes it cannot prove are garbage;
* **sequence gap / regression** — envelopes parse but numbers are
  missing, duplicated or go backwards: reported (the damage happened
  before this read; nothing local to fix).

:func:`repair_log` rewrites the file atomically with only the intact
records; :func:`compact_log` additionally deduplicates by a caller key
(last record wins, matching the stores' resume semantics).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.durability.atomic import (
    append_line,
    atomic_write_text,
    truncate_torn_tail,
)

STORE_SCHEMA_VERSION = 2
HEADER_KEY = "__repro_store__"
QUARANTINE_SUFFIX = ".quarantine"


def payload_digest(payload: Any) -> str:
    """sha256[:16] of the canonical (sorted, compact) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def header_line() -> str:
    """The v2 header record (first line of every checksummed file)."""
    return json.dumps(
        {HEADER_KEY: "jsonl", "version": STORE_SCHEMA_VERSION},
        sort_keys=True,
    )


def envelope_line(seq: int, payload: Any) -> str:
    """Render one v2 envelope line around ``payload``."""
    return json.dumps(
        {"seq": seq, "sha": payload_digest(payload), "payload": payload},
        sort_keys=True,
    )


@dataclass
class DamageReport:
    """What :func:`read_log` found wrong (and right) with one file.

    ``checksum_mismatches`` and ``corrupt_lines`` are 1-based line
    numbers; ``torn_tail`` is the final line's number when it failed to
    parse. ``legacy_records`` counts pre-v2 bare-payload lines (not
    damage — they carry no checksum to verify).
    """

    path: str
    intact_records: int = 0
    legacy_records: int = 0
    torn_tail: Optional[int] = None
    corrupt_lines: List[int] = field(default_factory=list)
    checksum_mismatches: List[int] = field(default_factory=list)
    sequence_gaps: List[Tuple[int, int]] = field(default_factory=list)
    sequence_regressions: List[Tuple[int, int]] = field(default_factory=list)
    #: highest seq carried by any envelope (intact or mismatched) —
    #: appenders must never reuse a slot a damaged record once occupied.
    max_seq: int = 0
    has_header: bool = False

    @property
    def damaged(self) -> bool:
        """Whether the file needs repair (torn tail, corruption, mismatch)."""
        return bool(
            self.torn_tail is not None
            or self.corrupt_lines
            or self.checksum_mismatches
        )

    def summary(self) -> str:
        """One-line human-readable damage summary."""
        bits = [f"{self.intact_records} intact"]
        if self.legacy_records:
            bits.append(f"{self.legacy_records} legacy(v1)")
        if self.torn_tail is not None:
            bits.append(f"torn tail @line {self.torn_tail}")
        if self.corrupt_lines:
            bits.append(f"{len(self.corrupt_lines)} corrupt")
        if self.checksum_mismatches:
            bits.append(f"{len(self.checksum_mismatches)} checksum-mismatched")
        if self.sequence_gaps:
            bits.append(f"{len(self.sequence_gaps)} seq gaps")
        if self.sequence_regressions:
            bits.append(f"{len(self.sequence_regressions)} seq regressions")
        status = "DAMAGED" if self.damaged else "ok"
        return f"{os.path.basename(self.path)}: {status} ({', '.join(bits)})"


@dataclass
class _ParsedLine:
    """One physical line classified by the reader."""

    lineno: int
    text: str
    kind: str  # "header" | "record" | "legacy" | "corrupt" | "mismatch" | "blank"
    payload: Any = None
    seq: Optional[int] = None


def _classify_line(lineno: int, raw: str) -> _ParsedLine:
    text = raw.strip()
    if not text:
        return _ParsedLine(lineno, raw, "blank")
    try:
        record = json.loads(text)
    except ValueError:
        return _ParsedLine(lineno, raw, "corrupt")
    if isinstance(record, dict) and HEADER_KEY in record:
        return _ParsedLine(lineno, raw, "header", payload=record)
    if (
        isinstance(record, dict)
        and "sha" in record
        and "payload" in record
    ):
        seq = record.get("seq")
        if payload_digest(record["payload"]) != record["sha"]:
            return _ParsedLine(
                lineno,
                raw,
                "mismatch",
                payload=record,
                seq=seq if isinstance(seq, int) else None,
            )
        return _ParsedLine(
            lineno,
            raw,
            "record",
            payload=record["payload"],
            seq=seq if isinstance(seq, int) else None,
        )
    return _ParsedLine(lineno, raw, "legacy", payload=record)


def _scan(path: str) -> Tuple[List[_ParsedLine], DamageReport]:
    report = DamageReport(path=path)
    if not os.path.exists(path):
        return [], report
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    parsed = [_classify_line(i + 1, raw) for i, raw in enumerate(raw_lines)]
    last_seq: Optional[int] = None
    meaningful = [p for p in parsed if p.kind != "blank"]
    for p in meaningful:
        if p.kind == "header":
            if p.lineno == 1:
                report.has_header = True
            continue
        if p.kind == "corrupt":
            if p is meaningful[-1]:
                report.torn_tail = p.lineno
            else:
                report.corrupt_lines.append(p.lineno)
            continue
        if p.kind == "mismatch":
            report.checksum_mismatches.append(p.lineno)
            if p.seq is not None:
                report.max_seq = max(report.max_seq, p.seq)
            continue
        if p.kind == "legacy":
            report.legacy_records += 1
        else:
            report.intact_records += 1
            if p.seq is not None:
                if last_seq is not None and p.seq > last_seq + 1:
                    report.sequence_gaps.append((last_seq, p.seq))
                elif last_seq is not None and p.seq <= last_seq:
                    report.sequence_regressions.append((last_seq, p.seq))
                # Keep the high-water mark so one regressed record does
                # not cascade into spurious gap reports downstream.
                last_seq = max(last_seq, p.seq) if last_seq is not None else p.seq
                report.max_seq = max(report.max_seq, p.seq)
    return parsed, report


def read_log(path: str) -> Tuple[List[Any], DamageReport]:
    """Load every intact payload of ``path`` plus a damage report.

    Damaged lines are skipped (never raised over): a campaign resuming
    from a damaged store loses exactly the damaged records and
    recomputes them. Legacy (v1) bare-payload lines are returned
    in-place, so pre-checksum stores stay resumable.
    """
    parsed, report = _scan(path)
    payloads = [p.payload for p in parsed if p.kind in ("record", "legacy")]
    return payloads, report


def read_payloads(path: str) -> List[Any]:
    """:func:`read_log` without the report (reader-compat convenience)."""
    payloads, _ = read_log(path)
    return payloads


def verify_log(path: str) -> DamageReport:
    """Scan ``path`` without loading payloads into the caller."""
    _, report = _scan(path)
    return report


@dataclass
class RepairResult:
    """What :func:`repair_log` / :func:`compact_log` did to one file."""

    path: str
    kept_records: int = 0
    truncated_tail: bool = False
    quarantined: int = 0
    dropped_duplicates: int = 0
    rewritten: bool = False
    stale_temps: int = 0

    def summary(self) -> str:
        """One-line human-readable repair summary."""
        bits = [f"{self.kept_records} kept"]
        if self.truncated_tail:
            bits.append("torn tail truncated")
        if self.quarantined:
            bits.append(f"{self.quarantined} quarantined")
        if self.dropped_duplicates:
            bits.append(f"{self.dropped_duplicates} stale dropped")
        if self.stale_temps:
            bits.append(f"{self.stale_temps} leftover temp file(s) removed")
        action = "rewritten" if self.rewritten else "clean"
        return f"{os.path.basename(self.path)}: {action} ({', '.join(bits)})"


def _rewrite(
    path: str,
    keep: List[_ParsedLine],
    quarantine: List[_ParsedLine],
) -> None:
    """Atomically rewrite ``path`` with ``keep``; append damage to the
    quarantine sibling (append — earlier quarantined lines are kept, and
    a line it already holds, left by a rewrite killed before its
    replace, is not appended again)."""
    if quarantine:
        qpath = path + QUARANTINE_SUFFIX
        held: Set[str] = set()
        if os.path.exists(qpath):
            with open(qpath, "r", encoding="utf-8") as handle:
                held = set(handle.read().splitlines())
        for p in quarantine:
            line = p.text.rstrip("\n")
            if line not in held:
                append_line(qpath, line, site=p.lineno)
    lines = [header_line()]
    for seq, p in enumerate(keep, start=1):
        lines.append(envelope_line(seq, p.payload))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _salvage(
    path: str,
) -> Tuple[RepairResult, DamageReport, List[_ParsedLine], List[_ParsedLine]]:
    """Scan ``path`` for what a rewrite keeps and what it quarantines,
    and delete the temp files of earlier rewrites killed before their
    replace.

    Returns the result so far, the damage report, the intact records
    (legacy v1 payloads included) and the damaged lines other than the
    torn tail, which was never committed: it is truncated, not
    quarantined.
    """
    parsed, report = _scan(path)
    # A rewrite killed before its replace leaves its temp file behind.
    stale = glob.glob(glob.escape(path) + ".tmp.[0-9]*")
    for temp in stale:
        os.unlink(temp)
    keep = [p for p in parsed if p.kind in ("record", "legacy")]
    quarantine = [
        p
        for p in parsed
        if p.kind in ("mismatch", "corrupt") and p.lineno != report.torn_tail
    ]
    result = RepairResult(
        path=path,
        kept_records=len(keep),
        truncated_tail=report.torn_tail is not None,
        quarantined=len(quarantine),
        stale_temps=len(stale),
    )
    return result, report, keep, quarantine


def repair_log(path: str) -> RepairResult:
    """Truncate torn tails and quarantine damaged records of ``path``.

    Intact records (including legacy v1 payloads, which are upgraded to
    checksummed envelopes) are preserved verbatim and re-sequenced; the
    file is rewritten atomically only when there is damage to fix or a
    missing header to add. Quarantined lines land in
    ``<path>.quarantine`` for forensics — repair never destroys bytes.
    """
    result, report, keep, quarantine = _salvage(path)
    if not os.path.exists(path):
        return result
    if report.damaged or not report.has_header or report.legacy_records > 0:
        _rewrite(path, keep, quarantine)
        result.rewritten = True
    return result


def compact_log(
    path: str, key_of: Callable[[Any], Optional[str]]
) -> RepairResult:
    """Repair ``path`` and drop superseded records (last key wins).

    ``key_of`` maps a payload to its resume key; ``None`` keeps the
    record unconditionally (e.g. failure records have no key). The
    surviving records keep their original relative order.
    """
    result, _report, keep, quarantine = _salvage(path)
    if not os.path.exists(path):
        return result
    last_index: Dict[str, int] = {}
    for i, p in enumerate(keep):
        key = key_of(p.payload)
        if key is not None:
            last_index[key] = i
    survivors: List[_ParsedLine] = []
    for i, p in enumerate(keep):
        key = key_of(p.payload)
        if key is None or last_index[key] == i:
            survivors.append(p)
    result.dropped_duplicates = len(keep) - len(survivors)
    result.kept_records = len(survivors)
    _rewrite(path, survivors, quarantine)
    result.rewritten = True
    return result


class KeyedLog:
    """Keyed, last-record-wins view over one :class:`ChecksummedLog`.

    Fleet-state stores (placement rounds, billing records) and a
    campaign's runs, alone prefixes and metrics are naturally keyed
    streams: a crash-resumed supervisor deterministically replays every
    round from the beginning, and a campaign re-run without resume
    recomputes every cell, each re-appending records identical to the
    ones already on disk. :meth:`put` makes that replay *idempotent* — a
    payload equal to the latest record under its key is skipped, so a
    resume after a mid-run SIGKILL leaves the byte stream exactly as an
    uninterrupted run would have written it. Damaged lines
    are skipped on load (the replay recomputes and re-appends them), and
    :func:`compact_log` can drop superseded generations because every
    record carries its key in the ``"key"`` field.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._latest: Dict[str, Any] = {}
        if os.path.exists(path):
            payloads, _ = read_log(path)
            for payload in payloads:
                if isinstance(payload, dict) and "key" in payload:
                    self._latest[str(payload["key"])] = payload
        self._log: Optional[ChecksummedLog] = None

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The latest record stored under ``key`` (or ``None``)."""
        return self._latest.get(key)

    def put(self, key: str, payload: Dict[str, Any]) -> bool:
        """Durably record ``payload`` under ``key``; skip exact replays.

        Returns ``True`` when a record was appended, ``False`` when the
        latest record under ``key`` already equals ``payload`` (the
        idempotent-resume fast path).
        """
        record = dict(payload)
        record["key"] = key
        if self._latest.get(key) == record:
            return False
        if self._log is None:
            self._log = ChecksummedLog(self.path)
        self._log.append(record)
        self._latest[key] = record
        return True

    def keys(self) -> List[str]:
        """Every stored key, sorted (deterministic iteration order)."""
        return sorted(self._latest)

    def records(self) -> List[Dict[str, Any]]:
        """Latest record per key, in sorted key order."""
        return [self._latest[key] for key in self.keys()]

    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, key: str) -> bool:
        return key in self._latest


class ChecksummedLog:
    """Appender for one checksummed JSONL file.

    Construction repairs a torn tail (the uncommitted partial line a
    mid-write crash leaves) *before* the first append — appending in
    ``a`` mode onto a newline-less prefix would weld two records into
    one corrupt line. It then scans once for the next sequence number
    and writes the v2 header on first append to a new or empty file.
    Appends are atomic per record via
    :func:`~repro.durability.atomic.append_line`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._next_seq = 1
        if os.path.exists(path):
            truncate_torn_tail(path)
            _, report = _scan(path)
            # Continue past every occupied slot: the highest seq any
            # envelope carries (damaged ones included), or — for legacy
            # v1 files without seqs — the record count.
            occupied = report.intact_records + report.legacy_records
            self._next_seq = max(report.max_seq, occupied) + 1

    @property
    def next_seq(self) -> int:
        """Sequence number the next append will carry."""
        return self._next_seq

    def append(self, payload: Any) -> int:
        """Durably append ``payload`` (enveloped); returns its seq."""
        if self._next_seq == 1 and (
            not os.path.exists(self.path)
            or os.path.getsize(self.path) == 0
        ):
            append_line(self.path, header_line(), site="header")
        seq = self._next_seq
        append_line(self.path, envelope_line(seq, payload), site=seq)
        self._next_seq += 1
        return seq


__all__ = [
    "ChecksummedLog",
    "DamageReport",
    "HEADER_KEY",
    "KeyedLog",
    "QUARANTINE_SUFFIX",
    "RepairResult",
    "STORE_SCHEMA_VERSION",
    "compact_log",
    "envelope_line",
    "header_line",
    "payload_digest",
    "read_log",
    "read_payloads",
    "repair_log",
    "verify_log",
]
