"""Unit tests for the set-associative write-back cache."""

import pytest

from repro.cache.cache import SetAssocCache
from repro.config import CacheConfig


@pytest.fixture
def cache(small_cache_config):
    return SetAssocCache(small_cache_config)


def test_cold_miss_then_hit(cache):
    assert not cache.access(100).hit
    assert cache.access(100).hit
    assert cache.hits == 1 and cache.misses == 1


def test_eviction_reports_victim_line_address(cache):
    num_sets = cache.num_sets
    base = 7  # all addresses map to set 7
    for i in range(4):
        cache.access(base + i * num_sets)
    result = cache.access(base + 4 * num_sets)
    assert not result.hit
    assert result.evicted_line_addr == base  # LRU victim
    assert result.writeback_line_addr is None  # clean


def test_dirty_victim_triggers_writeback(cache):
    num_sets = cache.num_sets
    cache.access(3, is_write=True)
    for i in range(1, 5):
        cache.access(3 + i * num_sets)
    # line 3 was LRU and dirty
    results = [cache.access(3 + 5 * num_sets)]
    writebacks = [r.writeback_line_addr for r in results if r.writeback_line_addr]
    # the dirty line was evicted at some point during the fills above or now
    assert cache.contains(3) is False


def test_write_marks_line_dirty_and_hit_keeps_it(cache):
    cache.access(5)
    cache.access(5, is_write=True)
    num_sets = cache.num_sets
    for i in range(1, 4):
        cache.access(5 + i * num_sets)
    result = cache.access(5 + 4 * num_sets)
    assert result.writeback_line_addr == 5


def test_contains_does_not_disturb_lru(cache):
    num_sets = cache.num_sets
    for i in range(4):
        cache.access(1 + i * num_sets)
    # Probing the LRU line must not promote it.
    assert cache.contains(1)
    result = cache.access(1 + 4 * num_sets)
    assert result.evicted_line_addr == 1


def test_addresses_in_different_sets_do_not_conflict(cache):
    for addr in range(cache.num_sets):
        cache.access(addr)
    for addr in range(cache.num_sets):
        assert cache.contains(addr)


def test_reset_stats(cache):
    cache.access(1)
    cache.access(1)
    cache.reset_stats()
    assert cache.hits == 0 and cache.misses == 0 and cache.accesses == 0
