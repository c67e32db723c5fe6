"""Tests for the cross-query delta cache."""

from __future__ import annotations

import threading

import pytest

from repro.cache import DeltaCache
from repro.graphpool.pool import GraphPool
from repro.query.managers import GraphManager
from repro.core.deltagraph import DeltaGraph
from repro.datasets.coauthorship import (
    CoauthorshipConfig,
    generate_coauthorship_trace,
)
from repro.errors import ConfigurationError
from repro.storage.compression import CompressedCodec
from repro.storage.instrumented import InstrumentedKVStore
from repro.storage.memory_store import InMemoryKVStore


def make_cache(**kwargs):
    kwargs.setdefault("max_bytes", 1 << 20)
    kwargs.setdefault("sizer", lambda value: 100)  # deterministic accounting
    return DeltaCache(**kwargs)


class TestPolicies:
    """The eviction policy: least recently used first."""

    def test_lru_eviction_order(self):
        # Budget of 3 entries (sizer charges 100 each).
        cache = make_cache(max_bytes=300)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # refresh a; b is now least recently used
        cache.put("d", 4)
        assert not cache.contains("b")
        assert all(cache.contains(k) for k in ("a", "c", "d"))
        assert cache.stats().evictions == 1


class TestDeltaCache:
    def test_byte_budget_enforced(self):
        cache = DeltaCache(max_bytes=250, sizer=lambda v: 100)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.current_bytes() == 200
        cache.put("c", 3)  # exceeds 250 -> evicts until it fits
        assert cache.current_bytes() <= 250
        assert len(cache) == 2

    def test_oversized_value_rejected(self):
        cache = DeltaCache(max_bytes=100, sizer=lambda v: 1000)
        assert not cache.put("huge", object())
        assert len(cache) == 0

    def test_oversized_refresh_drops_the_stale_value(self):
        cache = DeltaCache(max_bytes=100)
        assert cache.put("k", "old", size=10)
        assert not cache.put("k", "new", size=1000)
        assert cache.get("k", default="absent") == "absent"
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.entries == 0 and stats.current_bytes == 0

    def test_explicit_size_overrides_sizer(self):
        cache = DeltaCache(max_bytes=1000, sizer=lambda v: 999)
        cache.put("a", 1, size=10)
        cache.put("b", 2, size=10)
        assert len(cache) == 2
        assert cache.current_bytes() == 20

    def test_negative_caching_and_lookup(self):
        cache = make_cache()
        cache.put("absent", None)
        found, value = cache.lookup("absent")
        assert found and value is None
        found, value = cache.lookup("never-seen")
        assert not found
        assert cache.get("absent", default="fallback") is None
        assert cache.get("never-seen", default="fallback") == "fallback"

    def test_stats_counters_and_hit_rate(self):
        cache = make_cache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1
        assert stats.insertions == 1
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        cache.reset_stats()
        assert cache.stats().hits == 0
        assert cache.contains("a")  # contents survive reset_stats

    def test_stats_diff(self):
        cache = make_cache()
        cache.put("a", 1)
        before = cache.stats()
        cache.get("a")
        diff = cache.stats() - before
        assert diff.hits == 1 and diff.misses == 0

    def test_group_invalidation(self):
        cache = make_cache()
        cache.put("0/d1/struct", 1, group="d1")
        cache.put("0/d1/nodeattr", 2, group="d1")
        cache.put("assembled-delta/d1/struct/0", 3, group="d1")
        cache.put("0/d2/struct", 4, group="d2")
        assert cache.invalidate_group("d1") == 3
        assert not cache.contains("0/d1/struct")
        assert cache.contains("0/d2/struct")
        assert cache.stats().invalidations == 3

    def test_invalidate_and_clear(self):
        cache = make_cache()
        cache.put("a", 1)
        cache.put("b", 2, group="g")
        cache.invalidate("a")
        assert not cache.contains("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes() == 0

    def test_get_many_returns_present_subset(self):
        cache = make_cache()
        cache.put("a", 1)
        cache.put("c", 3)
        assert cache.get_many(["a", "b", "c"]) == {"a": 1, "c": 3}

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DeltaCache(max_bytes=0)

    def test_thread_safety_smoke(self):
        """Hammer one small cache from several threads; invariants must hold."""
        cache = DeltaCache(max_bytes=50 * 10, sizer=lambda v: 10)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(400):
                    key = f"k{(seed * 31 + i) % 120}"
                    if i % 3 == 0:
                        cache.put(key, i, group=f"g{seed}")
                    elif i % 7 == 0:
                        cache.invalidate_group(f"g{seed}")
                    else:
                        cache.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.current_bytes <= cache.max_bytes
        assert stats.entries == len(cache)
        assert stats.entries * 10 == stats.current_bytes


class TestDeltaGraphIntegration:
    @pytest.fixture(scope="class")
    def events(self):
        return generate_coauthorship_trace(CoauthorshipConfig(
            total_events=3000, num_years=12, attrs_per_node=2, seed=5))

    def test_warm_query_skips_the_store(self, events):
        store = InstrumentedKVStore(InMemoryKVStore(codec=CompressedCodec()))
        index = DeltaGraph.build(events, store=store, leaf_eventlist_size=400,
                                 arity=3, cache_max_bytes=32 << 20)
        t = (events.start_time + events.end_time) // 2
        cold = index.get_snapshot(t)
        gets_after_cold = store.stats.gets
        warm = index.get_snapshot(t)
        assert warm.elements == cold.elements
        assert store.stats.gets == gets_after_cold  # served fully from cache
        stats = index.cache_stats()
        assert stats.hits > 0 and stats.insertions > 0

    def test_cache_results_match_uncached(self, events):
        cached = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3,
                                  cache_max_bytes=32 << 20)
        plain = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3)
        times = [events.start_time + (events.end_time - events.start_time)
                 * i // 7 for i in range(1, 7)]
        for t in times:
            assert cached.get_snapshot(t).elements == \
                plain.get_snapshot(t).elements
        for a, b in zip(cached.get_snapshots(times),
                        plain.get_snapshots(times)):
            assert a.elements == b.elements

    def test_append_events_keeps_cached_queries_correct(self, events):
        from dataclasses import replace

        index = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3,
                                 cache_max_bytes=32 << 20)
        plain = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3)
        # Warm the cache, then append enough fresh events to close new leaves
        # (which re-writes payloads and must invalidate their cache groups).
        t_mid = (events.start_time + events.end_time) // 2
        index.get_snapshot(t_mid)
        new_events = [replace(e, time=events.end_time + 1 + i)
                      for i, e in enumerate(list(events)[:900])]
        index.append_events(new_events)
        plain.append_events(new_events)
        t_new = events.end_time + len(new_events)
        assert index.get_snapshot(t_new).elements == \
            plain.get_snapshot(t_new).elements
        assert index.get_snapshot(t_mid).elements == \
            plain.get_snapshot(t_mid).elements

    def test_shared_cache_across_indexes(self, events):
        """Two DeltaGraphs over one store can share one cache."""
        store = InMemoryKVStore(codec=CompressedCodec())
        cache = DeltaCache(max_bytes=32 << 20)
        first = DeltaGraph.build(events, store=store, leaf_eventlist_size=400,
                                 arity=3, cache=cache)
        second = DeltaGraph(store=store, cache=cache)
        second.skeleton = first.skeleton
        second._materialized = first._materialized
        second._last_indexed_time = first._last_indexed_time
        t = (events.start_time + events.end_time) // 2
        first.get_snapshot(t)
        hits_before = cache.stats().hits
        second.get_snapshot(t)
        assert cache.stats().hits > hits_before

    def test_shared_cache_namespaces_distinct_stores(self, events):
        """One cache over two *different* datasets must never cross-serve.

        Delta ids (``evl:0`` ...) repeat across indexes, so without
        per-store namespacing the second index would silently read the
        first dataset's deltas out of the cache.
        """
        from dataclasses import replace

        cache = DeltaCache(max_bytes=32 << 20)
        other_events = [replace(e, time=e.time + 5) for e in events]
        a = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3,
                             cache=cache)
        b = DeltaGraph.build(other_events, leaf_eventlist_size=400, arity=3,
                             cache=cache)
        plain_b = DeltaGraph.build(other_events, leaf_eventlist_size=400,
                                   arity=3)
        t = (events.start_time + events.end_time) // 2
        a.get_snapshot(t)  # populate the cache with dataset A's deltas
        assert b.get_snapshot(t).elements == plain_b.get_snapshot(t).elements

    def test_managers_over_one_pool_share_one_cache(self, events):
        """The cache lives on the index: every manager over it shares it."""
        index = DeltaGraph.build(events, leaf_eventlist_size=400, arity=3,
                                 cache_max_bytes=8 << 20)
        pool = GraphPool()
        first = GraphManager(index, pool=pool)
        second = GraphManager(index, pool=pool)
        third = GraphManager(index)  # its own pool, still the index's cache
        assert first.cache is second.cache is third.cache is index.cache
        t = (events.start_time + events.end_time) // 2
        first.release(first.get_hist_graph(t))
        hits_before = index.cache.stats().hits
        second.release(second.get_hist_graph(t))
        assert index.cache.stats().hits > hits_before
        # An explicit cache is installed on the index, for every manager.
        cacheless = DeltaGraph.build(events, leaf_eventlist_size=400,
                                     arity=3)
        shared = DeltaCache(max_bytes=8 << 20)
        GraphManager(cacheless, cache=shared)
        assert GraphManager(cacheless).cache is shared

    def test_cacheless_queries_use_batched_reads(self, events):
        """Plan prefetch batches reads even with caching disabled."""
        store = InstrumentedKVStore(InMemoryKVStore(codec=CompressedCodec()))
        index = DeltaGraph.build(events, store=store, leaf_eventlist_size=400,
                                 arity=3)
        assert index.cache is None
        store.reset_stats()
        index.get_snapshot((events.start_time + events.end_time) // 2)
        # One offset-sorted sweep per query instead of per-key point reads.
        assert store.stats.batch_gets >= 1
        assert store.stats.gets > 0
