"""Deterministic process/IO fault plans for durability drills.

A :class:`FaultPlan` describes *exactly one* way this process is allowed
to misbehave while persisting state:

* **kill** — the process SIGKILLs itself (a real ``kill -9``, no Python
  cleanup) when a named crash point is reached for the n-th time, e.g.
  ``kill:mid_record@runs.jsonl#2`` dies halfway through the second
  record appended to ``runs.jsonl``;
* **io** — store writes fail in a named way (``enospc`` raises
  ``OSError(ENOSPC)``, ``partial_write`` persists a prefix of the data
  and then raises, ``slow_fsync`` sleeps before each fsync), gated by a
  deterministic per-site rate draw.

Plans are activated either programmatically (:func:`set_plan`, used by
unit tests) or through the ``REPRO_CHAOS`` environment variable, which
is how the chaos harness reaches a *real* campaign subprocess — the
variable propagates into worker pools for free. All randomness flows
from sha256 draws keyed by (seed, site) exactly like the telemetry
fault injectors, so a fault stream replays bit-identically.

Spec grammar (``;``-separated directives)::

    kill:<point>[@<file>][#<nth>]     crash points: before_append,
                                      mid_record, after_append,
                                      before_replace, after_replace
    io:<fault>[@<file>][:<rate>]      faults: enospc, partial_write,
                                      slow_fsync
    seed:<int>                        sha256 seed for the rate draws

``<file>`` matches on basename (empty = every file); ``<nth>`` is
1-based (default 1). Example: ``REPRO_CHAOS='kill:after_append@alone.jsonl#3'``.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.telemetry.spec import fault_u01

CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Named crash points the atomic-write helpers announce.
CRASH_POINTS: Tuple[str, ...] = (
    "before_append",
    "mid_record",
    "after_append",
    "before_replace",
    "after_replace",
)

#: Supported IO fault shapes.
IO_FAULTS: Tuple[str, ...] = ("enospc", "partial_write", "slow_fsync")


class ChaosSpecError(ValueError):
    """The ``REPRO_CHAOS`` spec string could not be parsed."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic process/IO misbehaviour plan.

    ``kill_point``/``kill_file``/``kill_nth`` select a self-SIGKILL at a
    named crash point; ``io_fault``/``io_file``/``io_rate`` select a
    write-path fault. A plan may carry both (the kill typically fires
    first). ``slow_fsync_s`` is the injected fsync latency.
    """

    kill_point: Optional[str] = None
    kill_file: str = ""
    kill_nth: int = 1
    io_fault: Optional[str] = None
    io_file: str = ""
    io_rate: float = 1.0
    seed: int = 0
    slow_fsync_s: float = 0.01

    def __post_init__(self) -> None:
        if self.kill_point is not None and self.kill_point not in CRASH_POINTS:
            raise ChaosSpecError(
                f"unknown crash point {self.kill_point!r}; "
                f"valid: {', '.join(CRASH_POINTS)}"
            )
        if self.io_fault is not None and self.io_fault not in IO_FAULTS:
            raise ChaosSpecError(
                f"unknown io fault {self.io_fault!r}; "
                f"valid: {', '.join(IO_FAULTS)}"
            )
        if self.kill_nth < 1:
            raise ChaosSpecError("kill ordinal (#n) must be >= 1")
        if not 0.0 <= self.io_rate <= 1.0:
            raise ChaosSpecError(
                f"io fault rate must be in [0, 1], got {self.io_rate}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_CHAOS`` grammar documented in the module."""
        kill_point: Optional[str] = None
        kill_file = ""
        kill_nth = 1
        io_fault: Optional[str] = None
        io_file = ""
        io_rate = 1.0
        seed = 0
        for raw in spec.split(";"):
            directive = raw.strip()
            if not directive:
                continue
            verb, _, rest = directive.partition(":")
            verb = verb.strip()
            if verb == "kill":
                rest, _, nth_text = rest.partition("#")
                point, _, file_part = rest.partition("@")
                kill_point = point.strip()
                kill_file = file_part.strip()
                if nth_text.strip():
                    try:
                        kill_nth = int(nth_text)
                    except ValueError:
                        raise ChaosSpecError(
                            f"bad kill ordinal {nth_text!r} in {directive!r}"
                        ) from None
            elif verb == "io":
                fault, _, tail = rest.partition("@")
                io_fault = fault.strip()
                if tail:
                    file_part, _, rate_text = tail.partition(":")
                    io_file = file_part.strip()
                    if rate_text.strip():
                        try:
                            io_rate = float(rate_text)
                        except ValueError:
                            raise ChaosSpecError(
                                f"bad io rate {rate_text!r} in {directive!r}"
                            ) from None
            elif verb == "seed":
                try:
                    seed = int(rest)
                except ValueError:
                    raise ChaosSpecError(
                        f"bad seed {rest!r} in {directive!r}"
                    ) from None
            else:
                raise ChaosSpecError(
                    f"unknown chaos directive {verb!r} in {spec!r} "
                    "(expected kill:/io:/seed:)"
                )
        return cls(
            kill_point=kill_point,
            kill_file=kill_file,
            kill_nth=kill_nth,
            io_fault=io_fault,
            io_file=io_file,
            io_rate=io_rate,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _file_matches(self, pattern: str, path: str) -> bool:
        return not pattern or os.path.basename(path) == pattern

    def die(self) -> None:
        """Raw ``SIGKILL`` of this process — no ``atexit``/``finally``
        cleanup can soften the crash, exactly like the OOM killer."""
        os.kill(os.getpid(), signal.SIGKILL)

    def _count_hit(self, point: str, path: str) -> bool:
        """Record one hit of (point, path); True when it is the fatal nth."""
        if self.kill_point != point:
            return False
        if not self._file_matches(self.kill_file, path):
            return False
        key = (point, self.kill_file)
        _HIT_COUNTS[key] = _HIT_COUNTS.get(key, 0) + 1
        return _HIT_COUNTS[key] >= self.kill_nth

    def crash(self, point: str, path: str) -> None:
        """SIGKILL this process if (point, path) is the planned crash.

        The n-th matching hit (1-based, counted per process in
        ``_HIT_COUNTS``) dies; earlier hits pass through untouched.
        """
        if self._count_hit(point, path):
            self.die()

    def take_mid_record(self, path: str) -> bool:
        """Consume one ``mid_record`` hit on ``path``; True on the fatal one.

        The caller (``append_line``) flushes the torn record prefix and
        then calls :meth:`die` — the kill is split out so the damage is
        on disk before the process vanishes.
        """
        return self._count_hit("mid_record", path)

    def io_draw(self, op: str, path: str, site: object) -> Optional[str]:
        """The IO fault to inject for this write, or ``None``.

        Deterministic: keyed by (seed, op, basename, site), so the same
        campaign replays the same fault stream regardless of host or
        process.
        """
        if self.io_fault is None:
            return None
        if not self._file_matches(self.io_file, path):
            return None
        draw = fault_u01(self.seed, "chaos-io", op, os.path.basename(path), site)
        if draw < self.io_rate:
            return self.io_fault
        return None

    def enospc_error(self, path: str) -> OSError:
        """The ``ENOSPC`` error an injected full-disk write raises."""
        return OSError(
            errno.ENOSPC, f"injected ENOSPC (chaos plan) writing {path}"
        )

    def partial_write_error(self, path: str) -> OSError:
        """The ``EIO`` error raised after an injected torn write."""
        return OSError(
            errno.EIO,
            f"injected partial write (chaos plan): torn record in {path}",
        )

    def sleep_fsync(self) -> None:
        """Injected fsync latency for the ``slow_fsync`` fault."""
        time.sleep(self.slow_fsync_s)


#: Per-process crash-point hit counters (``(point, file_pattern)`` keys).
_HIT_COUNTS: Dict[Tuple[str, str], int] = {}

#: Programmatically installed plan; overrides the environment variable.
_INSTALLED: Optional[FaultPlan] = None


def set_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` for this process (``None`` uninstalls).

    Also resets the crash-point hit counters so consecutive drills in
    one process count from zero.
    """
    global _INSTALLED
    _INSTALLED = plan
    _HIT_COUNTS.clear()


def active_plan() -> Optional[FaultPlan]:
    """The fault plan in force, if any.

    A programmatically installed plan wins; otherwise the
    ``REPRO_CHAOS`` environment variable is parsed on every call (cheap,
    and the variable may be set between campaigns in one process).
    """
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get(CHAOS_ENV_VAR, "")
    if not spec:
        return None
    return FaultPlan.parse(spec)


__all__ = [
    "CHAOS_ENV_VAR",
    "CRASH_POINTS",
    "ChaosSpecError",
    "FaultPlan",
    "IO_FAULTS",
    "active_plan",
    "set_plan",
]
