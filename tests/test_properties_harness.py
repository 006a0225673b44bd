"""Property-based tests for the harness layer (alone profiles, traces,
metrics) — complements test_properties.py's substrate coverage."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import metrics
from repro.harness.runner import AloneProfile
from repro.workloads.synthetic import AppSpec, SyntheticTrace


# -- AloneProfile -----------------------------------------------------------
profiles = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=50
).map(lambda deltas: AloneProfile(100, list(itertools.accumulate(deltas))))


@given(profiles, st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_profile_time_monotone_in_instructions(profile, inst):
    t1 = profile.time_at(inst)
    t2 = profile.time_at(inst + 1)
    assert t2 >= t1 >= 0


@given(profiles, st.integers(0, 1500), st.integers(0, 1500))
@settings(max_examples=60, deadline=None)
def test_profile_span_additivity(profile, a, b):
    lo, hi = sorted((a, b))
    mid = (lo + hi) // 2
    if profile.instructions[-1] == 0 and hi > 0:
        # A zero-progress profile makes every instruction beyond it
        # unreachable in alone time: spans are infinite, not additive.
        assert math.isinf(profile.time_at(hi))
        return
    total = profile.cycles_for_span(lo, hi)
    split = profile.cycles_for_span(lo, mid) + profile.cycles_for_span(mid, hi)
    assert math.isclose(total, split, rel_tol=1e-9, abs_tol=1e-6)


@given(profiles)
@settings(max_examples=40, deadline=None)
def test_profile_checkpoint_inversion(profile):
    """time_at(instructions[k]) is within the checkpoint that recorded it."""
    for k, inst in enumerate(profile.instructions):
        if k > 0 and inst == profile.instructions[k - 1]:
            continue  # stalled interval: inversion maps to its first index
        t = profile.time_at(inst)
        assert t <= (k + 1) * profile.checkpoint_interval + 1e-9


# -- SyntheticTrace ---------------------------------------------------------
specs = st.builds(
    AppSpec,
    name=st.just("prop"),
    apki=st.floats(min_value=0.5, max_value=50, allow_nan=False),
    reuse_prob=st.floats(min_value=0.0, max_value=1.0),
    reuse_depth=st.integers(min_value=1, max_value=10_000),
    footprint_lines=st.integers(min_value=10, max_value=1_000_000),
    seq_frac=st.floats(min_value=0.0, max_value=1.0),
    write_frac=st.floats(min_value=0.0, max_value=1.0),
)


@given(specs, st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_trace_records_within_bounds(spec, seed):
    base = 1 << 28
    trace = SyntheticTrace(spec, seed=seed, base_line=base)
    for record in itertools.islice(trace, 200):
        assert record.gap >= 0
        assert base <= record.line_addr < base + spec.footprint_lines
        assert isinstance(record.is_write, bool)


@given(specs, st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_trace_determinism_property(spec, seed):
    a = list(itertools.islice(SyntheticTrace(spec, seed=seed), 100))
    b = list(itertools.islice(SyntheticTrace(spec, seed=seed), 100))
    assert a == b


# -- metrics ---------------------------------------------------------------
slowdown_lists = st.lists(
    st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=16,
)


@given(slowdown_lists)
@settings(max_examples=60, deadline=None)
def test_harmonic_speedup_bounds(slowdowns):
    hs = metrics.harmonic_speedup(slowdowns)
    assert 0 < hs <= 1.0
    assert hs <= 1.0 / min(slowdowns) + 1e-9


@given(
    st.floats(min_value=0.1, max_value=50, allow_nan=False),
    st.floats(min_value=0.1, max_value=50, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_error_symmetric_in_sign_of_deviation(actual, delta):
    over = metrics.estimation_error_pct(actual + delta, actual)
    under = metrics.estimation_error_pct(actual - delta, actual)
    assert math.isclose(over, under, rel_tol=1e-9)
