"""Figure 7: DeltaGraph configurations vs an in-memory interval tree.

The paper compares, on Dataset 2 with k=4 and L=30000 (scaled down here):

* an in-memory interval tree,
* a largely disk-resident DeltaGraph with the root's grandchildren
  materialized,
* a DeltaGraph with all leaves materialized (total materialization),

on (a) per-query retrieval time for 25 queries and (b) the memory the index
itself consumes.  Paper result: both DeltaGraph variants are faster than the
interval tree while using significantly less memory (even under total
materialization).
"""

from __future__ import annotations

import statistics

import pytest

from repro.baselines.interval_tree import IntervalTreeSnapshotStore
from repro.core.deltagraph import DeltaGraph

from conftest import best_of_interleaved, wall_seconds

ARITY = 4
LEAF_SIZE = 1000
#: Rough bytes per materialized GraphPool entry, for the memory comparison.
ENTRY_BYTES = 100


@pytest.fixture(scope="module")
def interval_tree(dataset2):
    return IntervalTreeSnapshotStore(dataset2)


@pytest.fixture(scope="module")
def dg_grandchildren_materialized(dataset2):
    index = DeltaGraph.build(dataset2, leaf_eventlist_size=LEAF_SIZE,
                             arity=ARITY,
                             differential_functions=("intersection",))
    index.materialize_level_below_root(depth=2)
    return index


@pytest.fixture(scope="module")
def dg_total_materialization(dataset2):
    index = DeltaGraph.build(dataset2, leaf_eventlist_size=LEAF_SIZE,
                             arity=ARITY,
                             differential_functions=("intersection",))
    index.materialize_all_leaves()
    return index


def test_fig7a_retrieval_times(benchmark, recorder, interval_tree,
                               dg_grandchildren_materialized,
                               dg_total_materialization,
                               query_times_dataset2):
    times = query_times_dataset2
    # Per-timepoint minima, not medians across timepoints: the interval
    # tree's cost depends on the timepoint (late ones genuinely cost more),
    # and that distribution is the signal.
    tree_series, grandchild_series, total_series = best_of_interleaved(
        [wall_seconds(store.get_snapshot)
         for store in (interval_tree, dg_grandchildren_materialized,
                       dg_total_materialization)], times)
    benchmark(lambda: dg_grandchildren_materialized.get_snapshot(times[-1]))
    recorder("fig7a_retrieval", {
        "query_times": times,
        "interval_tree_seconds": tree_series,
        "dg_root_grandchildren_seconds": grandchild_series,
        "dg_total_materialization_seconds": total_series,
        "means": {
            "interval_tree": statistics.mean(tree_series),
            "dg_root_grandchildren": statistics.mean(grandchild_series),
            "dg_total_materialization": statistics.mean(total_series),
        },
        "medians": {
            "interval_tree": statistics.median(tree_series),
            "dg_root_grandchildren": statistics.median(grandchild_series),
            "dg_total_materialization": statistics.median(total_series),
        },
    }, timing=True)
    print("\n[fig7a] mean ms — interval tree "
          f"{statistics.mean(tree_series) * 1000:.1f}, "
          "DG (root's grandchildren mat.) "
          f"{statistics.mean(grandchild_series) * 1000:.1f}, "
          f"DG (total mat.) {statistics.mean(total_series) * 1000:.1f}")
    # Paper shape: both DeltaGraph configurations beat the interval tree, and
    # total materialization is the fastest of all.  Means, not medians: the
    # interval tree is bimodal across timepoints (late timepoints genuinely
    # cost more), and that tail is part of the claim.
    assert statistics.mean(total_series) < statistics.mean(tree_series)
    assert statistics.mean(total_series) <= statistics.mean(grandchild_series)


def test_fig7b_index_memory(benchmark, recorder, interval_tree,
                            dg_grandchildren_materialized,
                            dg_total_materialization):
    tree_bytes = interval_tree.estimated_memory_bytes()

    def pool_resident_bytes(index) -> int:
        # Materialized graphs live overlaid in the GraphPool, so their
        # memory footprint is the union of their elements, not the sum.
        union_entries = set()
        for node_id in index.materialized_nodes():
            union_entries.update(index._materialized[node_id].elements.keys())
        return len(union_entries) * ENTRY_BYTES

    grandchild_bytes = pool_resident_bytes(dg_grandchildren_materialized)
    total_bytes = pool_resident_bytes(dg_total_materialization)
    benchmark(lambda: interval_tree.memory_entries())
    recorder("fig7b_memory", {
        "interval_tree_bytes": tree_bytes,
        "dg_root_grandchildren_bytes": grandchild_bytes,
        "dg_total_materialization_bytes": total_bytes,
    })
    print(f"\n[fig7b] memory — interval tree {tree_bytes / 1e6:.1f} MB, "
          f"DG (grandchildren mat.) {grandchild_bytes / 1e6:.1f} MB, "
          f"DG (total mat.) {total_bytes / 1e6:.1f} MB")
    # Paper shape: both DeltaGraph variants use less memory than the tree.
    assert grandchild_bytes < tree_bytes
    assert total_bytes < tree_bytes
