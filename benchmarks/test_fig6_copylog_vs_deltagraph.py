"""Figure 6: DeltaGraph vs Copy+Log retrieval time, equal disk budget.

The paper executes 25 uniformly spaced snapshot queries on Datasets 1 and 2
and reports per-query retrieval times for Copy+Log and DeltaGraph
(Intersection), with the leaf-eventlist sizes chosen so both approaches use
roughly the same disk space.  The paper's result: the best DeltaGraph
variant is at least 4x faster, often an order of magnitude.

Here the DeltaGraph is given a leaf size 1/4 of the Copy+Log checkpoint
interval (the same trade the paper makes under an equal space budget, since
deltas are much smaller than full snapshots); we report mean per-query
retrieval time and the stored bytes of both.
"""

from __future__ import annotations

import statistics

import pytest

from repro.baselines.copy_log import CopyLogStore
from repro.core.deltagraph import DeltaGraph
from repro.storage.compression import CompressedCodec
from repro.storage.memory_store import InMemoryKVStore

COPYLOG_INTERVAL = 3000
DELTAGRAPH_LEAF = 750


def _timed_queries(store, times):
    import time
    per_query = []
    for t in times:
        started = time.perf_counter()
        store.get_snapshot(t)
        per_query.append(time.perf_counter() - started)
    return per_query


@pytest.fixture(scope="module")
def stores_dataset1(dataset1):
    copy_log = CopyLogStore(dataset1, snapshot_interval=COPYLOG_INTERVAL,
                            store=InMemoryKVStore(codec=CompressedCodec()))
    delta_graph = DeltaGraph.build(
        dataset1, store=InMemoryKVStore(codec=CompressedCodec()),
        leaf_eventlist_size=DELTAGRAPH_LEAF, arity=4,
        differential_functions=("intersection",))
    return copy_log, delta_graph


@pytest.fixture(scope="module")
def stores_dataset2(dataset2):
    copy_log = CopyLogStore(dataset2, snapshot_interval=COPYLOG_INTERVAL,
                            store=InMemoryKVStore(codec=CompressedCodec()))
    delta_graph = DeltaGraph.build(
        dataset2, store=InMemoryKVStore(codec=CompressedCodec()),
        leaf_eventlist_size=DELTAGRAPH_LEAF, arity=4,
        differential_functions=("intersection",))
    return copy_log, delta_graph


def _run_panel(benchmark, recorder, panel, copy_log, delta_graph, times):
    copylog_series = _timed_queries(copy_log, times)
    deltagraph_series = _timed_queries(delta_graph, times)
    benchmark(lambda: [delta_graph.get_snapshot(t) for t in times[::5]])
    speedup = statistics.mean(copylog_series) / statistics.mean(deltagraph_series)
    recorder(f"fig6_{panel}", {
        "query_times": times,
        "copylog_seconds": copylog_series,
        "deltagraph_seconds": deltagraph_series,
        "copylog_mean": statistics.mean(copylog_series),
        "deltagraph_mean": statistics.mean(deltagraph_series),
        "copylog_bytes": copy_log.storage_bytes(),
        "deltagraph_bytes": delta_graph.index_size_bytes(),
        "speedup_copylog_over_deltagraph": speedup,
    }, timing=True)
    print(f"\n[fig6/{panel}] Copy+Log mean "
          f"{statistics.mean(copylog_series) * 1000:.1f} ms vs DeltaGraph(Int) "
          f"{statistics.mean(deltagraph_series) * 1000:.1f} ms "
          f"(speedup x{speedup:.1f}); disk {copy_log.storage_bytes()}B vs "
          f"{delta_graph.index_size_bytes()}B")
    # The paper's headline: DeltaGraph wins clearly under a comparable or
    # smaller disk budget.
    assert statistics.mean(deltagraph_series) < statistics.mean(copylog_series)
    assert delta_graph.index_size_bytes() < copy_log.storage_bytes() * 1.5


def test_fig6a_dataset1(benchmark, recorder, stores_dataset1,
                        query_times_dataset1):
    copy_log, delta_graph = stores_dataset1
    _run_panel(benchmark, recorder, "dataset1", copy_log, delta_graph,
               query_times_dataset1)


def test_fig6b_dataset2(benchmark, recorder, stores_dataset2,
                        query_times_dataset2):
    copy_log, delta_graph = stores_dataset2
    _run_panel(benchmark, recorder, "dataset2", copy_log, delta_graph,
               query_times_dataset2)


def test_fig6b_dataset2_with_root_materialized(benchmark, recorder,
                                               stores_dataset2,
                                               query_times_dataset2):
    """The third series of Figure 6(b): DG(Int) with the root materialized."""
    _copy_log, delta_graph = stores_dataset2
    delta_graph.materialize_roots()
    try:
        series = _timed_queries(delta_graph, query_times_dataset2)
        benchmark(lambda: delta_graph.get_snapshot(query_times_dataset2[-1]))
        recorder("fig6_dataset2_root_materialized", {
            "seconds": series,
            "mean": statistics.mean(series),
        }, timing=True)
        print("\n[fig6/dataset2 +root mat] mean "
              f"{statistics.mean(series) * 1000:.1f} ms")
    finally:
        for node_id in list(delta_graph.materialized_nodes()):
            delta_graph.unmaterialize(node_id)
