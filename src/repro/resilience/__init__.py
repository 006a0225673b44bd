"""Resilience subsystem: fault isolation, invariant guards, checkpoint/resume.

Modules:

* :mod:`repro.resilience.faults` — :class:`RunFailure` records, config
  fingerprints, failure tables, deterministic replay;
* :mod:`repro.resilience.invariants` — opt-in conservation-law checks
  (:class:`InvariantChecker` / :class:`InvariantViolation`);
* :mod:`repro.resilience.campaign` — :class:`Campaign` orchestration and
  the JSONL checkpoint store under ``results/.campaign/``;
* :mod:`repro.resilience.watchdog` — hung-quantum detection (wall-clock
  budgets, dead-event-queue stalls);
* :mod:`repro.resilience.inject` — deterministic fault injectors for tests
  and chaos drills.

Attribute access is lazy (PEP 562): ``repro.harness.runner`` imports the
invariant/watchdog submodules while :mod:`repro.resilience.campaign`
imports the runner, so eagerly importing every submodule here would create
an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "Campaign": "repro.resilience.campaign",
    "CampaignStore": "repro.resilience.campaign",
    "PersistentAloneRunCache": "repro.resilience.campaign",
    "RunFailure": "repro.resilience.faults",
    "config_fingerprint": "repro.resilience.faults",
    "failure_table": "repro.resilience.faults",
    "rebuild_mix": "repro.resilience.faults",
    "replay_failure": "repro.resilience.faults",
    "stable_hash": "repro.resilience.faults",
    "InvariantChecker": "repro.resilience.invariants",
    "InvariantViolation": "repro.resilience.invariants",
    "MIN_ACTUAL_SLOWDOWN": "repro.resilience.invariants",
    "QuantumWatchdog": "repro.resilience.watchdog",
    "WatchdogStall": "repro.resilience.watchdog",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
