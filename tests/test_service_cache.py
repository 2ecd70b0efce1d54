"""Tests for the gateway's LRU result cache and its accounting."""

import sys
import threading

import pytest

from repro.bench.counters import count_operations
from repro.service.cache import LruCache


class TestBasics:
    def test_put_get(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_contains_and_len(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert len(cache) == 1

    def test_put_refreshes_value(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestEviction:
    def test_oldest_evicted_first(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_eviction_counted(self):
        cache = LruCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.stats().evictions == 1


class TestAccounting:
    def test_hit_miss_counts_and_rate(self):
        cache = LruCache(4, name="test")
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_cache_hit_rate_zero(self):
        assert LruCache(4).stats().hit_rate == 0.0

    def test_operations_recorded_in_bench_counters(self):
        """Cache traffic shows up in the same counters E1 uses for pairings."""
        cache = LruCache(1, name="kc")
        with count_operations() as counter:
            cache.put("a", 1)
            cache.get("a")
            cache.get("b")
            cache.put("c", 2)  # evicts "a"
        assert counter.get("kc_hit") == 1
        assert counter.get("kc_miss") == 1
        assert counter.get("kc_eviction") == 1


class TestInvalidation:
    def test_invalidate_where(self):
        cache = LruCache(8)
        for i in range(6):
            cache.put(i, i, group="alice" if i % 2 else "bob")
        dropped = cache.invalidate_where("alice")
        assert dropped == 3
        assert len(cache) == 3
        assert [i for i in range(6) if cache.contains(i, group="bob")] == [0, 2, 4]
        assert not any(cache.contains(i, group="alice") for i in range(6))
        assert cache.invalidate_where("alice") == 0
        assert cache.stats().invalidations == 3

class TestGroups:
    def test_same_key_in_two_groups_is_two_entries(self):
        cache = LruCache(4)
        cache.put("k", 1, group="g1")
        cache.put("k", 2, group="g2")
        assert cache.get("k", group="g1") == 1 and cache.get("k", group="g2") == 2
        assert cache.get("k") is None  # the ungrouped entry was never put
        assert len(cache) == 2

    def test_one_recency_order_across_groups(self):
        cache = LruCache(3)
        cache.put("a", 1, group="g1")
        cache.put("b", 2, group="g2")
        cache.put("c", 3, group="g1")
        cache.get("a", group="g1")  # "b" (in g2) is now the LRU entry
        cache.put("d", 4, group="g3")
        assert not cache.contains("b", group="g2")
        assert all(cache.contains(k, group=g) for k, g in (("a", "g1"), ("c", "g1"), ("d", "g3")))
        cache.put("e", 5, group="g3")  # evicts "c": g1 keeps only "a"
        assert cache.contains("a", group="g1") and not cache.contains("c", group="g1")

    def test_contains_touches_neither_stats_nor_recency(self):
        cache = LruCache(2)
        cache.put("a", 1, group="g")
        cache.put("b", 2, group="g")
        assert cache.contains("a", group="g") and not cache.contains("a")
        cache.put("c", 3, group="g")  # "a" is still the LRU entry
        assert not cache.contains("a", group="g")
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_invalidate_where_leaves_other_groups_in_order(self):
        cache = LruCache(3)
        cache.put("a", 1, group="keep")
        cache.put("a", 2, group="drop")
        cache.put("b", 3, group="keep")
        assert cache.invalidate_where("drop") == 1
        cache.put("c", 4, group="keep")
        cache.put("d", 5, group="keep")  # full again: "a" is the oldest left
        assert not cache.contains("a", group="keep")
        assert [cache.get(k, group="keep") for k in "bcd"] == [3, 4, 5]

    def test_concurrent_grouped_traffic_keeps_the_books(self):
        """More threads than cores put, get and drop groups on one small
        cache; every entry stays filed in exactly one place."""
        cache = LruCache(16)
        gets = [0] * 8

        def worker(index):
            for step in range(400):
                group = (index + step) % 5
                cache.put(step % 7, (group, step % 7), group=group)
                value = cache.get(step % 7, group=group)
                gets[index] += 1
                assert value is None or value == (group, step % 7)
                if step % 50 == 0:
                    cache.invalidate_where(group)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats.hits + stats.misses == sum(gets)
        filed = sum(len(entries) for _group, entries in cache._groups.values())
        assert filed == len(cache) == stats.size <= 16
