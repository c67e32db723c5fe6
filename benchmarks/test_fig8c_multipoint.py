"""Figure 8(c): multipoint query vs repeated singlepoint queries.

The paper retrieves 2-6 closely spaced snapshots (one month apart on the
DBLP trace) either with one multipoint (Steiner-tree) plan or with repeated
singlepoint retrievals, and shows the multipoint plan is significantly
cheaper because the snapshots overlap heavily and shared deltas are fetched
once (multi-query optimization).
"""

from __future__ import annotations

import time

import pytest

from repro.core.deltagraph import DeltaGraph
from repro.storage.instrumented import InstrumentedKVStore
from repro.storage.memory_store import InMemoryKVStore


@pytest.fixture(scope="module")
def instrumented_index(dataset1):
    store = InstrumentedKVStore(InMemoryKVStore())
    index = DeltaGraph.build(dataset1, store=store, leaf_eventlist_size=750,
                             arity=4, differential_functions=("intersection",))
    return index, store


def _closely_spaced_times(events, count):
    """`count` timepoints spaced ~1/60th of the lifespan apart (≈1 month)."""
    end = events.end_time
    span = events.end_time - events.start_time
    step = max(span // 60, 1)
    return [end - step * i for i in range(count)][::-1]


def test_fig8c_multipoint_vs_singlepoint(benchmark, recorder,
                                         instrumented_index, dataset1):
    index, store = instrumented_index
    rows = []
    for count in (2, 3, 4, 5, 6):
        times = _closely_spaced_times(dataset1, count)
        store.reset_stats()
        started = time.perf_counter()
        index.get_snapshots(times)
        multi_seconds = time.perf_counter() - started
        multi_bytes = store.stats.bytes_read
        store.reset_stats()
        started = time.perf_counter()
        for t in times:
            index.get_snapshot(t)
        single_seconds = time.perf_counter() - started
        single_bytes = store.stats.bytes_read
        rows.append({"num_queries": count,
                     "multipoint_seconds": multi_seconds,
                     "singlepoint_seconds": single_seconds,
                     "multipoint_bytes": multi_bytes,
                     "singlepoint_bytes": single_bytes})
    benchmark(lambda: index.get_snapshots(_closely_spaced_times(dataset1, 4)))
    recorder("fig8c_multipoint", {"rows": rows}, timing=True)
    print("\n[fig8c] #queries: multipoint vs repeated singlepoint (ms, bytes read)")
    for row in rows:
        print(f"  {row['num_queries']}: "
              f"{row['multipoint_seconds'] * 1000:7.1f} ms / "
              f"{row['multipoint_bytes']:>9d} B   vs   "
              f"{row['singlepoint_seconds'] * 1000:7.1f} ms / "
              f"{row['singlepoint_bytes']:>9d} B")
    # Paper shape: the multipoint plan reads no more data than repeated
    # singlepoint queries, and the advantage grows with the number of points.
    for row in rows:
        assert row["multipoint_bytes"] <= row["singlepoint_bytes"]
    assert rows[-1]["singlepoint_bytes"] / rows[-1]["multipoint_bytes"] >= \
        rows[0]["singlepoint_bytes"] / rows[0]["multipoint_bytes"]
