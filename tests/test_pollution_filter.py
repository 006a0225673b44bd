"""Unit tests for FST's pollution filter."""

from repro.cache.pollution_filter import PollutionFilter


def test_exact_filter_tracks_contention():
    pf = PollutionFilter()  # exact
    pf.on_evicted_by_other(10)
    assert pf.is_contention_miss(10)
    assert not pf.is_contention_miss(11)


def test_refetch_clears_entry():
    pf = PollutionFilter()
    pf.on_evicted_by_other(5)
    pf.on_refetch(5)
    assert not pf.is_contention_miss(5)


def test_refetch_of_untracked_line_is_noop():
    pf = PollutionFilter()
    pf.on_refetch(99)
    assert not pf.is_contention_miss(99)


def test_bloom_variant_basic_flow():
    pf = PollutionFilter(num_counters=512)
    pf.on_evicted_by_other(123)
    assert pf.is_contention_miss(123)
    pf.on_refetch(123)
    assert not pf.is_contention_miss(123)


def test_bloom_variant_avoids_duplicate_insertion():
    pf = PollutionFilter(num_counters=512)
    pf.on_evicted_by_other(7)
    pf.on_evicted_by_other(7)  # already present: not inserted again
    pf.on_refetch(7)
    assert not pf.is_contention_miss(7)


def test_clear():
    for pf in (PollutionFilter(), PollutionFilter(num_counters=128)):
        pf.on_evicted_by_other(3)
        pf.clear()
        assert not pf.is_contention_miss(3)
