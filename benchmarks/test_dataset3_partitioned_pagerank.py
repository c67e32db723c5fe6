"""Dataset 3 experiment (Section 7, "Experimental Setup"): partitioned PageRank.

The paper builds a partitioned index over a large citation-style trace
(3M nodes / 10M starting edges / 50-100M events), loads snapshot partitions
onto separate machines, and runs PageRank via its Pregel-like framework,
reporting ~22-24 seconds per snapshot including retrieval.  We run the same
pipeline at laptop scale and report seconds per snapshot (retrieval +
compute), demonstrating that the cost is dominated by the computation and
that retrieval parallelises across partitions.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.events import EventList
from repro.datasets.random_trace import generate_citation_style_dataset
from repro.distributed.partitioned import PartitionedHistoricalGraphStore

from conftest import uniform_times

NUM_PARTITIONS = 4
NUM_SNAPSHOTS = 4


@pytest.fixture(scope="module")
def dataset3_store():
    base_events, churn = generate_citation_style_dataset(
        num_nodes=1500, num_start_edges=5000, num_events=15000, seed=31)
    events = EventList(list(base_events) + list(churn))
    store = PartitionedHistoricalGraphStore(
        events, num_partitions=NUM_PARTITIONS, leaf_eventlist_size=2500,
        arity=4, differential_functions=("intersection",))
    return store, events


def test_dataset3_pagerank_per_snapshot(benchmark, recorder, dataset3_store):
    store, events = dataset3_store
    times = uniform_times(events, NUM_SNAPSHOTS)
    rows = []
    for t in times:
        started = time.perf_counter()
        retrieval = store.get_snapshot(t, components=["struct"],
                                       workers=NUM_PARTITIONS)
        retrieved = time.perf_counter()
        scores = store.pagerank_at(t, iterations=10, workers=NUM_PARTITIONS)
        finished = time.perf_counter()
        rows.append({
            "time": t,
            "nodes": retrieval.snapshot.num_nodes(),
            "edges": retrieval.snapshot.num_edges(),
            "retrieval_seconds": retrieved - started,
            "slowest_partition_seconds": retrieval.max_partition_seconds,
            "total_seconds": finished - started,
            "num_scored_vertices": len(scores),
        })
    benchmark(lambda: store.pagerank_at(times[-1], iterations=3,
                                        workers=NUM_PARTITIONS))
    recorder("dataset3_partitioned_pagerank", {
        "num_partitions": NUM_PARTITIONS,
        "rows": rows,
        "avg_total_seconds": statistics.mean(r["total_seconds"] for r in rows),
    }, timing=True)
    print(f"\n[dataset3] {NUM_PARTITIONS}-way partitioned PageRank per snapshot:")
    for row in rows:
        print(f"  t={row['time']:>9d}: {row['nodes']:>6d}n/{row['edges']:>7d}e "
              f"retrieve {row['retrieval_seconds']:.3f}s "
              f"total {row['total_seconds']:.3f}s")
    # Every snapshot's PageRank completes and scores all resident vertices.
    for row in rows:
        assert row["num_scored_vertices"] >= row["nodes"]
        assert row["total_seconds"] > row["retrieval_seconds"]
