#!/usr/bin/env python3
"""Cross-query delta cache: warm repeated workloads, watch the hit rate.

Demonstrates the retrieval caching subsystem (see DESIGN.md §4):

1. build a DeltaGraph over a disk-backed store with a shared
   :class:`~repro.cache.delta_cache.DeltaCache`,
2. run the same singlepoint workload cold and warm and compare latencies
   and store I/O,
3. share the index's cache between two managers over the same index,
4. inspect ``DeltaCache.stats()``.

Run with:  python examples/cached_retrieval.py
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from repro.cache import DeltaCache
from repro.core.deltagraph import DeltaGraph
from repro.datasets.coauthorship import CoauthorshipConfig, generate_coauthorship_trace
from repro.graphpool.pool import GraphPool
from repro.query.managers import GraphManager
from repro.storage.disk_store import DiskKVStore
from repro.storage.instrumented import InstrumentedKVStore


def timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def main() -> None:
    events = generate_coauthorship_trace(CoauthorshipConfig(
        total_events=12000, num_years=40, attrs_per_node=3, seed=42))

    with tempfile.TemporaryDirectory() as tmp:
        store = InstrumentedKVStore(
            DiskKVStore(os.path.join(tmp, "index.db")))
        cache = DeltaCache(max_bytes=64 << 20)
        index = DeltaGraph.build(events, store=store,
                                 leaf_eventlist_size=750, arity=4,
                                 cache=cache)
        print("index:", index.describe())

        # --------------------------------------------------------------
        # Cold vs warm: the same 25-query sweep, twice.
        # --------------------------------------------------------------
        span = events.end_time - events.start_time
        times = [events.start_time + span * (i + 1) // 26 for i in range(25)]
        cold = [timed(index.get_snapshot, t) for t in times]
        cold_gets = store.stats.gets
        warm = [timed(index.get_snapshot, t) for t in times]
        warm_gets = store.stats.gets - cold_gets
        print(f"\ncold sweep: {statistics.mean(cold) * 1000:.2f} ms/query, "
              f"{cold_gets} store reads ({store.stats.batch_gets} batched)")
        print(f"warm sweep: {statistics.mean(warm) * 1000:.2f} ms/query, "
              f"{warm_gets} store reads "
              f"(x{statistics.mean(cold) / statistics.mean(warm):.1f} faster)")

        # --------------------------------------------------------------
        # Two managers, one index, one cache (the index's).
        # --------------------------------------------------------------
        pool = GraphPool()
        alice = GraphManager(index, pool=pool)
        bob = GraphManager(index, pool=pool)
        alice.get_hist_graph(times[3])
        hits_before = cache.stats().hits
        bob.get_hist_graph(times[3])      # Bob rides Alice's fetches
        print(f"\nBob's query added {cache.stats().hits - hits_before} cache "
              "hits and 0 store reads")

        print("\nfinal cache state:", cache)
        stats = cache.stats()
        print(f"  hits={stats.hits} misses={stats.misses} "
              f"evictions={stats.evictions} "
              f"resident={stats.current_bytes / 1024:.0f} KiB "
              f"hit_rate={stats.hit_rate:.1%}")
        store.close()


if __name__ == "__main__":
    main()
