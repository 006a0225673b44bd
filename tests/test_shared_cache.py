"""Unit tests for the shared, partitionable LLC."""

import pytest

from repro.cache.shared_cache import SharedCache
from repro.config import CacheConfig


@pytest.fixture
def llc(small_cache_config):
    return SharedCache(small_cache_config, num_cores=2)


def test_per_core_stats(llc):
    llc.access(0, 1)
    llc.access(0, 1)
    llc.access(1, 2)
    assert llc.hits == [1, 0]
    assert llc.misses == [1, 1]


def test_eviction_listener_reports_owner_and_evictor(llc):
    events = []
    llc.add_eviction_listener(lambda addr, owner, evictor: events.append((addr, owner, evictor)))
    num_sets = llc.num_sets
    llc.access(0, 5)
    for i in range(1, 5):
        llc.access(1, 5 + i * num_sets)
    assert events, "an eviction should have occurred"
    addr, owner, evictor = events[0]
    assert addr == 5 and owner == 0 and evictor == 1


def test_partition_validation(llc):
    with pytest.raises(ValueError):
        llc.set_partition([1, 1])  # does not sum to associativity (4)
    with pytest.raises(ValueError):
        llc.set_partition([5, -1])
    with pytest.raises(ValueError):
        llc.set_partition([4])  # wrong length
    llc.set_partition([2, 2])
    llc.set_partition(None)


def test_partition_enforced_lazily(llc):
    num_sets = llc.num_sets
    # Core 0 fills a set completely.
    for i in range(4):
        llc.access(0, 2 + i * num_sets)
    llc.set_partition([1, 3])
    # Core 1's inserts evict core 0 (over quota) first.
    events = []
    llc.add_eviction_listener(lambda a, o, e: events.append(o))
    for i in range(3):
        llc.access(1, 2 + (10 + i) * num_sets)
    assert events == [0, 0, 0]


def test_partition_respects_own_quota(llc):
    llc.set_partition([2, 2])
    num_sets = llc.num_sets
    for i in range(2):
        llc.access(0, 3 + i * num_sets)
        llc.access(1, 3 + (8 + i) * num_sets)
    events = []
    llc.add_eviction_listener(lambda a, o, e: events.append((o, e)))
    llc.access(0, 3 + 20 * num_sets)
    # Core 0 at quota evicts its own line.
    assert events == [(0, 0)]


def test_allocate_without_stats(llc):
    result = llc.allocate(0, 42)
    assert not result.hit
    assert llc.hits == [0, 0] and llc.misses == [0, 0]
    assert llc.contains(42)
    # Re-allocating a resident line is a no-op "hit".
    assert llc.allocate(0, 42).hit
