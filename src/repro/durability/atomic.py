"""Crash-consistent file-write primitives.

Every byte the repository persists (campaign stores, metrics, ``--out``
tables, ``results/REPORT.md``) goes through one of three helpers:

* :func:`append_line` — append one line to a log: single ``write`` of
  the full line, ``flush``, ``fsync``. A crash can tear at most the
  trailing line, which the checksummed-store reader recovers.
* :func:`atomic_write_text` — whole-file snapshot: write to a
  ``.tmp.<pid>`` sibling, ``fsync``, ``os.replace`` over the target,
  ``fsync`` the directory. Readers see either the old or the new file,
  never a mix.
* :class:`DurableStream` — a write-many stream for high-rate writers
  (trace sinks): buffered writes, one ``flush``+``fsync`` at close, so
  durability costs one fsync per *file*, not per event.

:func:`truncate_torn_tail` is the recovery counterpart of
:func:`append_line`: it drops the uncommitted newline-less prefix a
mid-write crash leaves, restoring the exact pre-append state before an
appender reopens the file.

All three announce the named crash points of
:mod:`repro.durability.chaos` and honour the active
:class:`~repro.durability.chaos.FaultPlan`'s IO faults, which is how
the chaos harness tears writes and fills disks deterministically.
"""

from __future__ import annotations

import os
from typing import IO, Optional

from repro.durability import chaos


def fsync_dir(path: str) -> None:
    """fsync the directory containing ``path`` (rename durability).

    POSIX only makes a rename durable once the parent directory is
    synced. Platforms whose directories cannot be opened (Windows) skip
    silently — the ``os.replace`` there is already atomic.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_handle(handle: IO[str], plan: Optional[chaos.FaultPlan]) -> None:
    if plan is not None and plan.io_draw("fsync", handle.name, 0) == "slow_fsync":
        plan.sleep_fsync()
    handle.flush()
    os.fsync(handle.fileno())


def truncate_torn_tail(path: str) -> bool:
    """Drop a torn (newline-less) trailing partial line from ``path``.

    :func:`append_line` writes each record — newline included — in one
    ``write``, so a file whose final byte is not ``\\n`` ends in the
    torn prefix of a record that was never durably committed.
    Truncating back to the last newline restores the exact pre-append
    state; appending in ``a`` mode without this repair would weld the
    next record onto the torn prefix into one corrupt line. Returns
    ``True`` when bytes were removed.
    """
    try:
        if os.path.getsize(path) == 0:
            return False
    except OSError:
        return False
    with open(path, "rb+") as handle:
        data = handle.read()
        if data.endswith(b"\n"):
            return False
        cut = data.rfind(b"\n") + 1  # 0 when the first line itself tore
        handle.truncate(cut)
        handle.flush()
        os.fsync(handle.fileno())
    return True


def append_line(path: str, line: str, *, site: object = 0) -> None:
    """Durably append one line (adds the newline) to ``path``.

    The write/flush/fsync sequence bounds crash damage to a torn
    trailing line. ``site`` keys the deterministic IO-fault draws (pass
    a record sequence number so fault streams are stable under
    re-ordering of unrelated appends).

    Chaos crash points: ``before_append`` (nothing persisted),
    ``mid_record`` (a torn prefix of the line is persisted — the exact
    damage a power cut mid-write leaves) and ``after_append`` (the
    record is persisted, nothing after it is).
    """
    data = line if line.endswith("\n") else line + "\n"
    plan = chaos.active_plan()
    if plan is not None:
        plan.crash("before_append", path)
        fault = plan.io_draw("append", path, site)
        if fault == "enospc":
            raise plan.enospc_error(path)
    with open(path, "a", encoding="utf-8") as handle:
        if plan is not None and plan.take_mid_record(path):
            handle.write(data[: max(1, len(data) // 2)])
            _fsync_handle(handle, plan)
            plan.die()  # SIGKILL with the torn prefix on disk
        if plan is not None and fault == "partial_write":
            handle.write(data[: max(1, len(data) // 2)])
            _fsync_handle(handle, plan)
            raise plan.partial_write_error(path)
        handle.write(data)
        _fsync_handle(handle, plan)
    if plan is not None:
        plan.crash("after_append", path)


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path``'s contents with ``text``.

    Write to a same-directory temp file, fsync it, ``os.replace`` over
    the target, fsync the directory. A crash leaves either the complete
    old file or the complete new one. Chaos crash points:
    ``before_replace`` / ``after_replace``.
    """
    plan = chaos.active_plan()
    if plan is not None and plan.io_draw("replace", path, 0) == "enospc":
        raise plan.enospc_error(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            _fsync_handle(handle, plan)
        if plan is not None:
            plan.crash("before_replace", path)
        os.replace(tmp_path, path)
        fsync_dir(path)
        if plan is not None:
            plan.crash("after_replace", path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


class DurableStream:
    """A buffered line-stream whose close guarantees durability.

    For writers that emit many records per run (trace sinks): per-write
    fsync would turn an in-memory trace into a disk benchmark, so the
    stream buffers normally and pays a single ``flush``+``fsync`` at
    :meth:`close`. Torn tails from a crash before close are recovered
    by the same checksummed reader as every other JSONL file.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, data: str) -> None:
        """Buffered write of ``data`` (no per-call durability)."""
        if self._handle is None:
            raise ValueError(f"DurableStream({self.path!r}) is closed")
        self._handle.write(data)

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        if self._handle is not None:
            _fsync_handle(self._handle, chaos.active_plan())
            self._handle.close()
            self._handle = None


__all__ = [
    "DurableStream",
    "append_line",
    "atomic_write_text",
    "fsync_dir",
    "truncate_torn_tail",
]
