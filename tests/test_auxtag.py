"""Unit tests for the auxiliary tag store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.auxtag import AuxiliaryTagStore
from repro.cache.cache import SetAssocCache
from repro.cache.replacement import Line, LruSet
from repro.config import CacheConfig


@pytest.fixture
def config(small_cache_config):
    return small_cache_config  # 64 sets x 4 ways


def test_full_ats_mirrors_alone_cache(config):
    """An unsampled ATS fed one app's stream must agree, access by access,
    with a real cache running that app alone — the defining property."""
    import random

    rng = random.Random(1)
    ats = AuxiliaryTagStore(config)
    cache = SetAssocCache(config)
    for _ in range(5000):
        line = rng.randrange(500)
        outcome = ats.access(line)
        result = cache.access(line)
        assert outcome.sampled
        assert outcome.hit == result.hit


def test_way_hit_histogram_cumulates_to_hits(config):
    import random

    rng = random.Random(2)
    ats = AuxiliaryTagStore(config)
    for _ in range(3000):
        ats.access(rng.randrange(400))
    assert sum(ats.way_hits) == ats.sampled_hits
    # hits_with_ways at full associativity equals all hits.
    assert ats.hits_with_ways(config.associativity) == pytest.approx(
        ats.sampled_hits
    )


def test_utility_curve_monotone(config):
    import random

    rng = random.Random(3)
    ats = AuxiliaryTagStore(config)
    for _ in range(3000):
        ats.access(rng.randrange(600))
    curve = ats.utility_curve()
    assert len(curve) == config.associativity + 1
    assert curve[0] == 0.0
    assert all(curve[i] <= curve[i + 1] for i in range(len(curve) - 1))


def test_sampling_selects_subset_of_sets(config):
    ats = AuxiliaryTagStore(config, sampled_sets=8)
    assert ats.sample_stride > 1
    sampled = [ats.access(s).sampled for s in range(config.num_sets)]
    assert sum(sampled) == 8
    # Sampled sets are stride-spaced.
    assert ats.access(0).sampled
    assert not ats.access(1).sampled


def test_sampled_hit_accuracy_against_full(config):
    """Section 4.4: sampling should track the full ATS hit fraction."""
    import random

    rng = random.Random(5)
    stream = [rng.randrange(1000) if rng.random() < 0.5 else rng.randrange(5000)
              for _ in range(20000)]
    full = AuxiliaryTagStore(config)
    sampled = AuxiliaryTagStore(config, sampled_sets=8)
    for line in stream:
        full.access(line)
        sampled.access(line)
    sampled_fraction = sampled.sampled_hits / sampled.sampled_accesses
    full_fraction = full.sampled_hits / full.sampled_accesses
    assert sampled_fraction == pytest.approx(full_fraction, abs=0.08)


def test_reset_stats_preserves_tag_state(config):
    ats = AuxiliaryTagStore(config)
    ats.access(7)
    ats.reset_stats()
    assert ats.total_accesses == 0
    outcome = ats.access(7)
    assert outcome.hit, "tag state must survive quantum resets"


def test_invalid_sampled_sets(config):
    with pytest.raises(ValueError):
        AuxiliaryTagStore(config, sampled_sets=0)


def test_hits_with_zero_ways_is_zero(config):
    ats = AuxiliaryTagStore(config)
    ats.access(1)
    ats.access(1)
    assert ats.hits_with_ways(0) == 0.0


# -- the tag-only ATS against an LruSet reference -----------------------


class _LruSetAts:
    """The reference ATS: one LruSet of Line records per sampled set."""

    def __init__(self, config, stride):
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.sets = {
            idx: LruSet(config.associativity)
            for idx in range(0, config.num_sets, stride)
        }
        self.way_hits = [0] * config.associativity
        self.sampled = 0
        self.total = 0

    def access(self, line_addr):
        """(sampled, hit, stack position) of one access."""
        self.total += 1
        lru = self.sets.get(line_addr % self.num_sets)
        if lru is None:
            return False, False, None
        self.sampled += 1
        tag = line_addr // self.num_sets
        position = lru.stack_position(tag)
        if position is None:
            lru.insert(Line(tag))
            return True, False, None
        self.way_hits[position] += 1
        lru.touch(lru.lines[-1 - position])
        return True, True, position

    def hits_with_ways(self, ways):
        if ways <= 0 or not self.sampled:
            return 0.0
        hits = sum(self.way_hits[: min(ways, self.associativity)])
        return hits / self.sampled * self.total


@given(
    # (set, tag) pairs: a few sets, sampled and not at every stride, each
    # seeing more tags than it has ways, so hits land at every stack depth.
    stream=st.lists(
        st.tuples(st.sampled_from([0, 1, 4, 8, 17, 32, 63]), st.integers(0, 6)),
        max_size=400,
    ),
    sampled_sets=st.sampled_from([None, 16, 8, 1]),
)
@settings(max_examples=150, deadline=None)
def test_tag_only_ats_matches_lru_set_reference(stream, sampled_sets):
    config = CacheConfig(size_bytes=16 * 1024, associativity=4, latency=20)
    ats = AuxiliaryTagStore(config, sampled_sets)
    reference = _LruSetAts(config, ats.sample_stride)
    for set_index, tag in stream:
        line = tag * config.num_sets + set_index
        outcome = ats.access(line)
        sampled, hit, position = reference.access(line)
        assert outcome.sampled == sampled
        if sampled:
            assert (outcome.hit, outcome.stack_position) == (hit, position)
        assert ats.way_hits == reference.way_hits
    for ways in range(config.associativity + 2):
        assert ats.hits_with_ways(ways) == reference.hits_with_ways(ways)
