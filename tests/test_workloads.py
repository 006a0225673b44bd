"""Unit tests for synthetic workloads, the catalog, hog and mixes."""

import itertools
import random
import zlib

import pytest

from repro.cpu.trace import TraceRecord
from repro.workloads.catalog import CATALOG, intensity_class, spec_by_name
from repro.workloads.hog import hog_spec
from repro.workloads.mixes import make_mix, random_mixes
from repro.workloads.synthetic import AppSpec, SyntheticTrace


def _take(trace, n):
    return list(itertools.islice(trace, n))


def test_trace_is_deterministic():
    spec = spec_by_name("mcf")
    a = _take(SyntheticTrace(spec, seed=7), 500)
    b = _take(SyntheticTrace(spec, seed=7), 500)
    assert a == b


def test_different_seeds_differ():
    spec = spec_by_name("mcf")
    a = _take(SyntheticTrace(spec, seed=1), 200)
    b = _take(SyntheticTrace(spec, seed=2), 200)
    assert a != b


def test_base_line_offsets_address_space():
    spec = spec_by_name("gcc")
    records = _take(SyntheticTrace(spec, seed=3, base_line=1 << 28), 1000)
    assert all(r.line_addr >= 1 << 28 for r in records)
    assert all(r.line_addr < (1 << 28) + spec.footprint_lines for r in records)


def test_mean_gap_tracks_apki():
    spec = spec_by_name("libquantum")
    records = _take(SyntheticTrace(spec, seed=4), 20_000)
    mean_gap = sum(r.gap for r in records) / len(records)
    assert mean_gap == pytest.approx(spec.mean_gap, rel=0.1)


def test_write_fraction():
    spec = spec_by_name("lbm")  # write_frac 0.3
    records = _take(SyntheticTrace(spec, seed=5), 20_000)
    writes = sum(r.is_write for r in records) / len(records)
    assert writes == pytest.approx(spec.write_frac, abs=0.03)


def test_streaming_app_has_sequential_runs():
    spec = spec_by_name("libquantum")  # seq_frac 0.95, reuse tiny
    records = _take(SyntheticTrace(spec, seed=6), 2000)
    seq_pairs = sum(
        1
        for a, b in zip(records, records[1:])
        if b.line_addr - a.line_addr == 1
    )
    assert seq_pairs / len(records) > 0.6


def test_cache_sensitive_app_reuses_lines():
    spec = spec_by_name("ft")  # reuse_prob 0.88
    records = _take(SyntheticTrace(spec, seed=7), 30_000)
    distinct = len({r.line_addr for r in records})
    assert distinct < len(records) * 0.5, "hot set must be re-referenced"


def _stdlib_trace(spec, seed, base_line):
    """The generator's stream drawn through ``random.expovariate``.

    Same seeding and the same draws in the same order as
    :class:`SyntheticTrace`, written against the stdlib's own methods.
    """
    name_salt = zlib.crc32(spec.name.encode()) & 0xFFFF
    rng = random.Random((seed << 16) ^ name_salt)
    footprint = spec.footprint_lines
    next_seq = 0
    while True:
        gap = 0
        if spec.mean_gap > 0:
            gap = int(rng.expovariate(1.0 / spec.mean_gap))
        if rng.random() < spec.reuse_prob:
            rank = int(rng.expovariate(1.0 / spec.reuse_depth)) % footprint
            line = (rank * 2654435761) % footprint
        elif rng.random() < spec.seq_frac:
            line = next_seq
            next_seq = (next_seq + 1) % footprint
        else:
            line = rng.randrange(footprint)
        yield TraceRecord(gap, base_line + line, rng.random() < spec.write_frac)


# apki 1000 makes mean_gap 0: the generator draws no gap at all. Its
# footprint is a small power of two, so randrange draws one bit more
# than the largest line needs and rejects about half its draws, the
# footprint itself included.
_ZERO_GAP = AppSpec("zero-gap", apki=1000, reuse_prob=0.4, reuse_depth=64,
                    footprint_lines=64, seq_frac=0.5)

# Every catalog app, a reusing hog, a pure streaming hog with no hot set,
# and the zero-gap spec.
_DRAW_SPECS = pytest.mark.parametrize(
    "spec",
    list(CATALOG.values())
    + [hog_spec(0.7, 0.4), hog_spec(1.0, 0.0), _ZERO_GAP],
    ids=lambda spec: spec.name,
)


@_DRAW_SPECS
def test_trace_matches_stdlib_draws(spec):
    # 20,000 next() calls cross many refills of the draw-ahead buffer.
    trace = SyntheticTrace(spec, seed=11, base_line=3 << 28)
    reference = _stdlib_trace(spec, 11, 3 << 28)
    assert _take(trace, 20_000) == _take(reference, 20_000)


@_DRAW_SPECS
def test_take_matches_stdlib_draws(spec):
    trace = SyntheticTrace(spec, seed=11, base_line=3 << 28)
    reference = _take(_stdlib_trace(spec, 11, 3 << 28), 20_000)
    assert trace.take(20_000) == tuple(map(list, zip(*reference)))


@_DRAW_SPECS
def test_next_and_take_interleave_on_one_stream(spec):
    # Takes that start inside the buffer next() filled, end inside it,
    # run past it, and next() calls that refill it in between.
    trace = SyntheticTrace(spec, seed=11, base_line=3 << 28)
    records = []
    for op, n in [("next", 3), ("take", 100), ("next", 400), ("take", 0),
                  ("take", 1), ("next", 1), ("take", 1000), ("next", 256)]:
        if op == "next":
            records.extend(next(trace) for _ in range(n))
        else:
            records.extend(map(TraceRecord, *trace.take(n)))
    reference = _stdlib_trace(spec, 11, 3 << 28)
    assert records == _take(reference, len(records))


def test_spec_validation():
    with pytest.raises(ValueError):
        AppSpec("x", apki=0, reuse_prob=0.5, reuse_depth=10,
                footprint_lines=100, seq_frac=0.5)
    with pytest.raises(ValueError):
        AppSpec("x", apki=1, reuse_prob=1.5, reuse_depth=10,
                footprint_lines=100, seq_frac=0.5)
    with pytest.raises(ValueError):
        AppSpec("x", apki=1, reuse_prob=0.5, reuse_depth=0,
                footprint_lines=100, seq_frac=0.5)


def test_catalog_contents():
    assert len(CATALOG) >= 25
    suites = {spec.suite for spec in CATALOG.values()}
    assert suites == {"spec", "nas", "db"}
    for name in ("mcf", "libquantum", "bzip2", "ft", "tpcc", "ycsb"):
        assert name in CATALOG


def test_spec_by_name_unknown():
    with pytest.raises(KeyError):
        spec_by_name("doom3")


def test_intensity_classes_cover_catalog():
    classes = {intensity_class(s) for s in CATALOG.values()}
    assert classes == {"low", "medium", "high"}


def test_hog_intensity_scales_apki():
    weak = hog_spec(0.1)
    strong = hog_spec(1.0)
    assert strong.apki > weak.apki * 5


def test_hog_cache_pressure_shifts_profile():
    bandwidth = hog_spec(1.0, cache_pressure=0.0)
    capacity = hog_spec(1.0, cache_pressure=1.0)
    assert bandwidth.seq_frac > capacity.seq_frac
    assert capacity.reuse_prob > bandwidth.reuse_prob


def test_hog_validation():
    with pytest.raises(ValueError):
        hog_spec(1.5)
    with pytest.raises(ValueError):
        hog_spec(0.5, cache_pressure=-0.1)


def test_make_mix():
    mix = make_mix(["mcf", "ft"], seed=5)
    assert mix.num_cores == 2
    assert mix.name == "mcf+ft"
    traces = mix.traces()
    assert len(traces) == 2


def test_mix_alone_trace_matches_shared_trace():
    mix = make_mix(["mcf", "ft"], seed=5)
    shared = _take(mix.traces()[1], 300)
    alone = _take(mix.trace_for_core(1), 300)
    assert shared == alone


def test_random_mixes_deterministic_and_distinct():
    a = random_mixes(5, 4, seed=10)
    b = random_mixes(5, 4, seed=10)
    assert [m.specs for m in a] == [m.specs for m in b]
    assert len({m.specs for m in a}) > 1


def test_random_mixes_core_count():
    for mix in random_mixes(3, 8, seed=2):
        assert mix.num_cores == 8
