"""Tests for the set-associative cache array."""

import pytest
from hypothesis import given, strategies as st

from repro.config import CacheConfig
from repro.memory.cache import CacheLine, SetAssociativeCache


def tiny_cache(associativity=2, sets=4) -> SetAssociativeCache:
    config = CacheConfig(
        size_bytes=associativity * sets * 64, associativity=associativity
    )
    return SetAssociativeCache(config, name="tiny")


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(5) is None
        cache.insert(5, "S")
        line = cache.lookup(5)
        assert line is not None and line.state == "S"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_set_mapping(self):
        cache = tiny_cache(sets=4)
        assert cache.set_index(0) == 0
        assert cache.set_index(4) == 0
        assert cache.set_index(5) == 1

    def test_duplicate_insert_rejected(self):
        cache = tiny_cache()
        cache.insert(5, "S")
        with pytest.raises(ValueError):
            cache.insert(5, "M")

    def test_peek_does_not_count(self):
        cache = tiny_cache()
        cache.insert(5, "S")
        cache.peek(5)
        cache.peek(999)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_uncounted_lookup(self):
        cache = tiny_cache()
        cache.lookup(5, count=False)
        assert cache.stats.misses == 0


class TestLRU:
    def test_lru_victim_is_oldest(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "S")
        victim = cache.insert(2, "S")
        assert victim.block == 0

    def test_lookup_refreshes_recency(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "S")
        cache.lookup(0)  # 1 becomes LRU
        victim = cache.insert(2, "S")
        assert victim.block == 1

    def test_lookup_without_lru_update(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "S")
        cache.lookup(0, update_lru=False)
        victim = cache.insert(2, "S")
        assert victim.block == 0

    def test_eviction_counted(self):
        cache = tiny_cache(associativity=1, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "S")
        assert cache.stats.evictions == 1

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(associativity=1, sets=4)
        for block in range(4):
            assert cache.insert(block, "S") is None
        assert cache.occupancy() == 4


class TestEvict:
    def test_explicit_evict(self):
        cache = tiny_cache()
        cache.insert(5, "M", dirty=True)
        line = cache.evict(5)
        assert line.dirty
        assert cache.peek(5) is None

    def test_evict_absent_returns_none(self):
        assert tiny_cache().evict(5) is None


class TestSnapshot:
    def test_roundtrip_contents_and_lru(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "M", dirty=True)
        cache.lookup(0)  # order now: 1 (LRU), 0 (MRU)
        restored = SetAssociativeCache.restore(cache.config, cache.snapshot())
        assert restored.peek(1).state == "M"
        assert restored.peek(1).dirty
        victim = restored.insert(2, "S")
        assert victim.block == 1  # LRU order survived

    def test_roundtrip_stats(self):
        cache = tiny_cache()
        cache.lookup(1)
        cache.insert(1, "S")
        cache.lookup(1)
        restored = SetAssociativeCache.restore(cache.config, cache.snapshot())
        assert restored.stats.hits == 1
        assert restored.stats.misses == 1

    def test_clear(self):
        cache = tiny_cache()
        cache.insert(1, "S")
        cache.clear()
        assert cache.occupancy() == 0
        assert cache.stats.accesses == 0


class TestLinesAreValues:
    def test_views_are_built_on_demand_and_read_only(self):
        cache = tiny_cache()
        cache.insert(5, "M", dirty=True)
        view = cache.peek(5)
        assert view == CacheLine(block=5, state="M", dirty=True)
        assert view is not cache.peek(5)  # nothing is stored but the int
        with pytest.raises(AttributeError):
            view.state = "S"
        assert cache.peek(5).state == "M"

    def test_set_state_keeps_dirty_bit_and_lru_position(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "M", dirty=True)
        cache.insert(1, "S")
        cache.set_state(0, "O")
        assert cache.peek(0) == CacheLine(0, "O", True)
        assert cache.insert(2, "S").block == 0  # still the LRU line
        with pytest.raises(KeyError):
            cache.set_state(99, "S")

    def test_copy_from_shares_nothing(self):
        cache = tiny_cache(associativity=2, sets=1)
        cache.insert(0, "S")
        cache.insert(1, "M", dirty=True)
        cache.lookup(0)
        twin = tiny_cache(associativity=2, sets=1)
        twin.copy_from(cache)
        assert twin.snapshot() == cache.snapshot()
        assert twin.stats == cache.stats and twin.stats is not cache.stats
        twin.set_state(1, "S")
        twin.evict(0)
        twin.lookup(7)
        assert cache.peek(1).state == "M" and cache.peek(0) is not None
        assert cache.stats.misses == 0
        assert cache.insert(2, "S").block == 1  # the source's LRU order is its own


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_property_occupancy_bounded(blocks):
    """No set ever holds more lines than the associativity."""
    cache = tiny_cache(associativity=2, sets=4)
    for block in blocks:
        if cache.lookup(block) is None:
            cache.insert(block, "S")
    per_set: dict[int, int] = {}
    for block in cache.resident_blocks():
        per_set[cache.set_index(block)] = per_set.get(cache.set_index(block), 0) + 1
    assert all(count <= 2 for count in per_set.values())
    assert cache.occupancy() <= 8


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=200))
def test_property_most_recent_insert_resident(blocks):
    """The most recently inserted/touched block is always resident."""
    cache = tiny_cache(associativity=2, sets=4)
    for block in blocks:
        if cache.lookup(block) is None:
            cache.insert(block, "S")
        assert cache.peek(block) is not None
