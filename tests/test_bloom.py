"""Unit tests for the counting Bloom filter."""

import pytest

from repro.cache.bloom import CountingBloomFilter


def test_insert_and_membership():
    bloom = CountingBloomFilter(1024)
    bloom.insert(42)
    assert 42 in bloom
    assert 43 not in bloom


def test_remove_restores_absence():
    bloom = CountingBloomFilter(1024)
    bloom.insert(7)
    bloom.remove(7)
    assert 7 not in bloom


def test_no_false_negatives():
    bloom = CountingBloomFilter(4096)
    keys = list(range(0, 2000, 7))
    for key in keys:
        bloom.insert(key)
    assert all(key in bloom for key in keys)


def test_false_positive_rate_reasonable():
    bloom = CountingBloomFilter(4096)
    for key in range(200):
        bloom.insert(key)
    false_positives = sum(1 for key in range(10_000, 20_000) if key in bloom)
    assert false_positives / 10_000 < 0.05


def test_small_filter_aliases():
    """A tiny filter saturates — the degradation FST suffers in Fig 3."""
    bloom = CountingBloomFilter(32)
    for key in range(100):
        bloom.insert(key)
    assert bloom.load > 0.9


def test_remove_unknown_key_is_noop():
    bloom = CountingBloomFilter(64)
    bloom.remove(5)  # must not raise or underflow
    bloom.insert(6)
    bloom.remove(5)
    assert 6 in bloom


def test_counting_supports_duplicates():
    bloom = CountingBloomFilter(256)
    bloom.insert(9)
    bloom.insert(9)
    bloom.remove(9)
    assert 9 in bloom
    bloom.remove(9)
    assert 9 not in bloom


def test_clear():
    bloom = CountingBloomFilter(128)
    bloom.insert(1)
    bloom.clear()
    assert 1 not in bloom and bloom.load == 0.0


def test_invalid_params():
    with pytest.raises(ValueError):
        CountingBloomFilter(0)
