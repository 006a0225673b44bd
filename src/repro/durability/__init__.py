"""Durability subsystem: crash-consistent stores, chaos drills, retries.

Modules:

* :mod:`repro.durability.atomic` — the three write primitives every
  persisted byte goes through (:func:`append_line`,
  :func:`atomic_write_text`, :class:`DurableStream`);
* :mod:`repro.durability.store` — checksummed JSONL logs (store format
  v2): per-record sha256 + sequence numbers, torn-tail recovery,
  quarantine, :func:`verify_log`/:func:`repair_log`/:func:`compact_log`;
* :mod:`repro.durability.chaos` — deterministic process/IO fault plans
  (``REPRO_CHAOS``): self-SIGKILL at named crash points, injected
  ENOSPC/partial-write/slow-fsync;
* :mod:`repro.durability.retry` — supervised retry
  (:class:`RetryPolicy`) and the per-cell :class:`CircuitBreaker`; a
  cell given up leaves one ``RunFailure`` with its attempts and reason;
* :mod:`repro.durability.cli` — ``repro campaign verify|repair|compact``.

Attribute access is lazy (PEP 562), matching :mod:`repro.resilience`:
:mod:`repro.durability.retry` imports ``repro.resilience.faults`` while
the campaign store imports this package, so eager imports would cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List

_EXPORTS: Dict[str, str] = {
    "DurableStream": "repro.durability.atomic",
    "append_line": "repro.durability.atomic",
    "atomic_write_text": "repro.durability.atomic",
    "fsync_dir": "repro.durability.atomic",
    "truncate_torn_tail": "repro.durability.atomic",
    "ChecksummedLog": "repro.durability.store",
    "DamageReport": "repro.durability.store",
    "KeyedLog": "repro.durability.store",
    "RepairResult": "repro.durability.store",
    "STORE_SCHEMA_VERSION": "repro.durability.store",
    "compact_log": "repro.durability.store",
    "payload_digest": "repro.durability.store",
    "read_log": "repro.durability.store",
    "read_payloads": "repro.durability.store",
    "repair_log": "repro.durability.store",
    "verify_log": "repro.durability.store",
    "CHAOS_ENV_VAR": "repro.durability.chaos",
    "ChaosSpecError": "repro.durability.chaos",
    "FaultPlan": "repro.durability.chaos",
    "active_plan": "repro.durability.chaos",
    "set_plan": "repro.durability.chaos",
    "CircuitBreaker": "repro.durability.retry",
    "RetryPolicy": "repro.durability.retry",
    "TRANSIENT_ERRORS": "repro.durability.retry",
    "failure_signature": "repro.durability.retry",
    "campaign_main": "repro.durability.cli",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
