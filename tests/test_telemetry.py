"""Unit tests for the telemetry layer: fault specs, the counter bank and
every injector class (repro.telemetry)."""

import pytest

from repro.telemetry import CounterBank, TelemetrySpec
from repro.telemetry.counters import (
    FLAG_DELAYED,
    FLAG_DROPPED,
    FLAG_EPOCH_GLITCH,
    FLAG_SATURATED,
)
from repro.telemetry.spec import DEFAULT_FAULT_RATE, FAULT_CLASSES, fault_u01


def spec(fault_class, rate, **kw):
    return TelemetrySpec(fault_class=fault_class, rate=rate, **kw)


# ---------------------------------------------------------------------------
# TelemetrySpec


def test_parse_class_and_rate():
    parsed = TelemetrySpec.parse("dropped-read:0.05")
    assert parsed.fault_class == "dropped_read"
    assert parsed.rate == 0.05


def test_parse_defaults_the_rate():
    assert TelemetrySpec.parse("saturation").rate == DEFAULT_FAULT_RATE


@pytest.mark.parametrize("text", ["bogus", "saturation:nope", "saturation:2"])
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        TelemetrySpec.parse(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec("not_a_class", 0.1)
    with pytest.raises(ValueError):
        spec("saturation", -0.1)
    with pytest.raises(ValueError):
        spec("saturation", 0.1, counter_bits=1)


def test_json_roundtrip_ignores_unknown_keys():
    original = spec("wraparound", 0.25, seed=3, counter_bits=12)
    data = original.to_json()
    assert TelemetrySpec.from_json(data) == original
    data["future_field"] = "ignored"
    assert TelemetrySpec.from_json(data) == original


def test_fault_u01_is_deterministic_and_site_keyed():
    a = fault_u01(1, "asm", "counter", 0, "read", 5)
    assert a == fault_u01(1, "asm", "counter", 0, "read", 5)
    assert 0.0 <= a < 1.0
    assert a != fault_u01(1, "asm", "counter", 0, "read", 6)
    assert a != fault_u01(2, "asm", "counter", 0, "read", 5)
    assert a != fault_u01(1, "fst", "counter", 0, "read", 5)


# ---------------------------------------------------------------------------
# Healthy bank (no spec): plain counters, true values everywhere.


def test_healthy_bank_reads_true_values():
    bank = CounterBank(2)
    vec = bank.vec("accesses")
    vec.add(0)
    vec.add(0, 5)
    vec.add(1)
    assert vec.read(0) == 6
    assert vec.read(1) == 1
    # Oracle view for simulator-side invariant checkers.
    assert vec[0] == 6
    assert list(vec) == [6, 1]
    assert len(vec) == 2
    assert bank.collect_flags(0) == []
    vec.reset()
    assert list(vec) == [0, 0]


def test_healthy_external_read_and_delta():
    backing = [10, 20]
    bank = CounterBank(2)
    sample = bank.external("queueing", lambda core: backing[core])
    assert sample.read(0) == 10
    sample.rebase()
    backing[0] += 7
    assert sample.delta(0) == 7
    assert sample.delta(1) == 0


def test_duplicate_registration_is_rejected():
    bank = CounterBank(1)
    bank.vec("x")
    bank.external("y", lambda core: 0)
    with pytest.raises(ValueError):
        bank.vec("x")
    with pytest.raises(ValueError):
        bank.external("y", lambda core: 0)


def test_zero_rate_spec_never_fires():
    for fault_class in FAULT_CLASSES:
        bank = CounterBank(2, spec(fault_class, 0.0), salt="m")
        vec = bank.vec("c")
        ats = bank.vec("s", kind="ats")
        vec.add(0, 1_000_000)
        ats.add(0, 123)
        assert vec.read(0) == 1_000_000
        assert ats.read(0) == 123
        assert bank.attribute_epoch(0) == 0
        assert bank.faults_injected == 0
        assert bank.collect_flags(0) == []


# ---------------------------------------------------------------------------
# Width faults: saturation flags at the all-ones pattern, wraparound is
# silent. rate=1.0 makes every per-(counter, core) instance narrow.


def test_saturation_caps_and_flags():
    bank = CounterBank(1, spec("saturation", 1.0, counter_bits=4))
    vec = bank.vec("c")
    vec.add(0, 100)
    assert vec.read(0) == 15  # 2**4 - 1: the recognisable all-ones pattern
    assert FLAG_SATURATED in bank.collect_flags(0)
    assert vec[0] == 100  # the oracle still sees the truth


def test_saturation_below_the_limit_is_exact():
    bank = CounterBank(1, spec("saturation", 1.0, counter_bits=4))
    vec = bank.vec("c")
    vec.add(0, 9)
    assert vec.read(0) == 9
    assert bank.collect_flags(0) == []


def test_wraparound_is_silent():
    bank = CounterBank(1, spec("wraparound", 1.0, counter_bits=4))
    vec = bank.vec("c")
    vec.add(0, 21)
    assert vec.read(0) == 21 % 16
    assert bank.collect_flags(0) == []


# ---------------------------------------------------------------------------
# Read-transaction faults.


def test_dropped_read_returns_zero_and_flags():
    bank = CounterBank(1, spec("dropped_read", 1.0))
    vec = bank.vec("c")
    vec.add(0, 42)
    assert vec.read(0) == 0
    assert FLAG_DROPPED in bank.collect_flags(0)


def test_delayed_read_replays_the_previous_sample():
    bank = CounterBank(1, spec("delayed_read", 1.0))
    vec = bank.vec("c")
    vec.add(0, 5)
    assert vec.read(0) == 0  # nothing sampled yet: the mailbox is empty
    vec.add(0, 3)
    assert vec.read(0) == 5  # previous quantum's sample
    assert FLAG_DELAYED in bank.collect_flags(0)


def test_ats_corruption_only_touches_ats_counters_and_is_silent():
    bank = CounterBank(1, spec("ats_corruption", 1.0))
    plain = bank.vec("c")
    ats = bank.vec("s", kind="ats")
    plain.add(0, 10)
    ats.add(0, 10)
    assert plain.read(0) == 10
    corrupted = ats.read(0)
    assert corrupted > 10  # perturbed upward
    assert bank.collect_flags(0) == []  # silent by design
    assert bank.faults_injected > 0


# ---------------------------------------------------------------------------
# Epoch-ownership glitches.


def test_epoch_glitch_misattributes_and_flags_both_cores():
    bank = CounterBank(4, spec("epoch_glitch", 1.0))
    attributed = bank.attribute_epoch(1)
    assert attributed != 1
    assert 0 <= attributed < 4
    assert FLAG_EPOCH_GLITCH in bank.collect_flags(1)
    assert FLAG_EPOCH_GLITCH in bank.collect_flags(attributed)


def test_epoch_glitch_needs_a_victim():
    bank = CounterBank(1, spec("epoch_glitch", 1.0))
    assert bank.attribute_epoch(0) == 0  # nowhere to misattribute to


def test_epoch_glitch_stream_is_deterministic():
    def stream():
        bank = CounterBank(4, spec("epoch_glitch", 0.5, seed=9), salt="asm")
        return [bank.attribute_epoch(i % 4) for i in range(32)]

    first = stream()
    assert first == stream()
    assert any(first[i] != i % 4 for i in range(32))  # some glitches fired


def test_collect_flags_pops():
    bank = CounterBank(1, spec("dropped_read", 1.0))
    vec = bank.vec("c")
    vec.read(0)
    assert bank.collect_flags(0) == [FLAG_DROPPED]
    assert bank.collect_flags(0) == []


def test_bank_reset_zeroes_vecs_in_place():
    bank = CounterBank(2)
    vec = bank.vec("c")
    alias = vec.values
    vec.add(0, 3)
    bank.reset()
    assert alias == [0, 0]
    assert vec.values is alias
