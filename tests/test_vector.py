"""Checks on ``SystemConfig.engine``, the field that records a cell's tier,
and on the DRAM timing the analytic tier takes for granted."""

import pytest

from repro.config import DramConfig, SystemConfig, scaled_config


def test_replay_assumption_holds_for_ddr3_timing():
    """tRAS never binds back-to-back: tRCD + CL + burst >= tRAS.

    The analytic tier's closed-form bank service time leaves tRAS out on
    this ground."""
    dram = DramConfig()
    assert dram.trcd + dram.cas_latency + dram.burst_time >= dram.tras


def test_engine_field_validates():
    SystemConfig(engine="event").validate()
    SystemConfig(engine="analytic").validate()
    with pytest.raises(ValueError):
        SystemConfig(engine="gpu").validate()
    assert scaled_config().with_engine("analytic").engine == "analytic"


def test_config_fingerprint_unchanged_by_engine_field():
    """The engine field must not invalidate pre-existing campaign stores:
    event-tier configs fingerprint exactly as before the field existed,
    and the analytic tier gets a key of its own."""
    from repro.resilience.faults import config_fingerprint

    assert config_fingerprint(SystemConfig()) == "cd734d0265708e27"
    assert config_fingerprint(scaled_config()) == "80f750177cde756e"
    assert config_fingerprint(scaled_config(8)) == "c7608857799a8f65"
    analytic = scaled_config().with_engine("analytic")
    assert config_fingerprint(analytic) == "4cbf092cf2453142"


def test_alone_cache_key_excludes_engine():
    """Alone profiles are tier-independent and shared across tiers."""
    from repro.harness.runner import AloneRunCache

    cache = AloneRunCache()
    event_key = cache._config_key(scaled_config())
    analytic_key = cache._config_key(scaled_config().with_engine("analytic"))
    assert event_key == analytic_key
