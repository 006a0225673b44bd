"""Unit tests for LRU set machinery."""

from repro.cache.replacement import Line, LruSet


def test_insert_until_full_then_evict_lru():
    lru = LruSet(2)
    assert lru.insert(Line(1)) is None
    assert lru.insert(Line(2)) is None
    victim = lru.insert(Line(3))
    assert victim is not None and victim.tag == 1


def test_touch_promotes_to_mru():
    lru = LruSet(2)
    lru.insert(Line(1))
    lru.insert(Line(2))
    lru.touch(lru.find(1))
    victim = lru.insert(Line(3))
    assert victim.tag == 2


def test_stack_position_is_mru_distance():
    lru = LruSet(4)
    for tag in (1, 2, 3):
        lru.insert(Line(tag))
    assert lru.stack_position(3) == 0
    assert lru.stack_position(2) == 1
    assert lru.stack_position(1) == 2
    assert lru.stack_position(99) is None


def test_insert_with_quota_evicts_over_quota_owner_first():
    lru = LruSet(4)
    # Owner 0 holds 3 lines, owner 1 holds 1.
    for tag in (1, 2, 3):
        lru.insert(Line(tag, owner=0))
    lru.insert(Line(4, owner=1))
    # Quota: owner 0 may hold 2 ways, owner 1 may hold 2.
    victim = lru.insert_with_quota(Line(5, owner=1), [2, 2])
    # Owner 0 is over quota; its LRU line (tag 1) goes.
    assert victim.tag == 1 and victim.owner == 0


def test_insert_with_quota_self_evicts_within_quota():
    lru = LruSet(2)
    lru.insert(Line(1, owner=0))
    lru.insert(Line(2, owner=1))
    # Both owners within quota [1, 1]: inserting owner 0 evicts its own line.
    victim = lru.insert_with_quota(Line(3, owner=0), [1, 1])
    assert victim.tag == 1 and victim.owner == 0


def test_insert_with_quota_zero_quota_owner_always_evicted():
    lru = LruSet(2)
    lru.insert(Line(1, owner=0))
    lru.insert(Line(2, owner=0))
    victim = lru.insert_with_quota(Line(3, owner=1), [0, 2])
    assert victim.owner == 0
