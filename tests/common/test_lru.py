"""Tests for the bounded LRU cache and the reference recency model.

:class:`LRUState` is the per-set recency object the hardware tables used
before they kept flat recency lists; it now backs the reference models in
``tests/reference_models.py`` that the cache and table oracle tests compare
against, so its semantics stay pinned here.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.lru import LRUCache
from tests.reference_models import LRUState


class TestLRUState:
    def test_initial_victim_is_way_zero(self):
        lru = LRUState(4)
        assert lru.victim() == 0

    def test_touch_promotes(self):
        lru = LRUState(4)
        lru.touch(2)
        assert lru.most_recent() == 2
        assert lru.victim() != 2

    def test_cold_fill_order(self):
        # Touching ways in order 0,1,2,3 leaves 0 as the victim.
        lru = LRUState(4)
        for way in range(4):
            lru.touch(way)
        assert lru.victim() == 0

    def test_sequence(self):
        lru = LRUState(3)
        lru.touch(0)
        lru.touch(1)
        lru.touch(2)
        lru.touch(0)
        assert lru.recency_order() == [0, 2, 1]
        assert lru.victim() == 1

    def test_single_way(self):
        lru = LRUState(1)
        assert lru.victim() == 0
        lru.touch(0)
        assert lru.victim() == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            LRUState(0)

    @given(st.integers(2, 8), st.lists(st.integers(0, 7), max_size=60))
    def test_invariants(self, ways, touches):
        lru = LRUState(ways)
        for way in touches:
            lru.touch(way % ways)
            order = lru.recency_order()
            # Recency order is always a permutation of all ways.
            assert sorted(order) == list(range(ways))
            # The just-touched way is most recent; victim is last.
            assert order[0] == way % ways
            assert lru.victim() == order[-1]

    @given(st.integers(2, 8))
    def test_victim_never_most_recent(self, ways):
        lru = LRUState(ways)
        for way in range(ways):
            lru.touch(way)
            assert lru.victim() != lru.most_recent()


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # promote: b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh: b becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        info = cache.info()
        assert (info.hits, info.misses) == (1, 1)
        assert (info.maxsize, info.currsize) == (2, 1)

    def test_peek_does_not_promote_or_count(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        info = cache.info()
        assert (info.hits, info.misses) == (0, 0)
        cache.put("c", 3)  # "a" is still LRU despite the peek
        assert "a" not in cache

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.info().hits == 1

    def test_iteration_order_is_lru_to_mru(self):
        cache = LRUCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert list(cache) == ["b", "c", "a"]

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_resize_shrink_evicts_lru(self):
        cache = LRUCache(maxsize=4)
        for key in ("a", "b", "c", "d"):
            cache.put(key, key)
        cache.get("a")  # promote: LRU order is now b, c, d, a
        cache.resize(2)
        assert cache.maxsize == 2
        assert list(cache) == ["d", "a"]

    def test_resize_grow_keeps_entries(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.resize(5)
        assert cache.maxsize == 5
        assert len(cache) == 2
        cache.put("c", 3)
        cache.put("d", 4)
        assert "a" in cache  # no eviction until the new capacity is reached

    def test_resize_invalid(self):
        cache = LRUCache(maxsize=2)
        with pytest.raises(ValueError):
            cache.resize(0)

    @given(st.integers(1, 5), st.lists(st.integers(0, 9), max_size=80))
    def test_never_exceeds_capacity(self, maxsize, keys):
        cache = LRUCache(maxsize=maxsize)
        for key in keys:
            cache.put(key, key * 2)
            assert len(cache) <= maxsize
            assert cache.get(key) == key * 2
