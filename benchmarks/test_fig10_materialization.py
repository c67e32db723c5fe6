"""Figure 10: effect of memory materialization.

On Dataset 2 (arity 4, Intersection), the paper compares four
configurations — no materialization, root materialized, the root's children
materialized, the root's grandchildren materialized — on (a) average query
time and (b) the memory the materialized graphs consume.  Materializing
deeper levels cuts query latencies (up to ~8x) at the cost of more memory.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.deltagraph import DeltaGraph
from repro.core.snapshot import GraphSnapshot

from conftest import uniform_times

NUM_QUERIES = 15
ENTRY_BYTES = 100


@pytest.fixture(scope="module")
def churn_workload(dataset1, dataset2):
    """Dataset 2 exactly as the paper constructs it: the churn events only,
    with Dataset 1's final graph as the starting snapshot ``G_0``.

    (Indexing the concatenated trace instead would make the DeltaGraph's
    Intersection root empty — the history would start from the empty graph —
    and materializing it could never help, hiding the effect Figure 10
    measures.)
    """
    initial = GraphSnapshot.from_events(dataset1, time=dataset1.end_time)
    churn_events = [e for e in dataset2 if e.time > dataset1.end_time]
    return initial, churn_events


def _fresh_index(churn_workload):
    initial, churn_events = churn_workload
    return DeltaGraph.build(churn_events, initial_graph=initial,
                            leaf_eventlist_size=1000, arity=4,
                            differential_functions=("intersection",))


def _avg_query_seconds(index, times):
    series = []
    for t in times:
        started = time.perf_counter()
        index.get_snapshot(t)
        series.append(time.perf_counter() - started)
    return statistics.mean(series)


def test_fig10_materialization_levels(benchmark, recorder, churn_workload):
    _initial, churn_events = churn_workload
    from repro.core.events import EventList
    churn_list = EventList(churn_events)
    times = uniform_times(churn_list, NUM_QUERIES)
    configurations = [
        ("none", lambda index: None),
        ("root", lambda index: index.materialize_roots()),
        ("root_children", lambda index: index.materialize_level_below_root(1)),
        ("root_grandchildren",
         lambda index: index.materialize_level_below_root(2)),
    ]
    rows = []
    for name, materialize in configurations:
        index = _fresh_index(churn_workload)
        materialize(index)
        avg_seconds = _avg_query_seconds(index, times)
        memory_entries = index.materialization_memory_entries()
        rows.append({"configuration": name, "avg_seconds": avg_seconds,
                     "materialization_entries": memory_entries,
                     "materialization_bytes": memory_entries * ENTRY_BYTES})
    index = _fresh_index(churn_workload)
    index.materialize_roots()
    benchmark(lambda: index.get_snapshot(times[-1]))
    recorder("fig10_materialization", {"rows": rows}, timing=True)
    print("\n[fig10] configuration: avg query ms, materialized memory")
    for row in rows:
        print(f"  {row['configuration']:<20s} "
              f"{row['avg_seconds'] * 1000:7.1f} ms  "
              f"{row['materialization_bytes'] / 1e6:6.2f} MB")
    by_name = {row["configuration"]: row for row in rows}
    # Paper shape: deeper materialization -> faster queries, more memory.
    assert by_name["root_grandchildren"]["avg_seconds"] < \
        by_name["none"]["avg_seconds"]
    assert by_name["root"]["avg_seconds"] <= by_name["none"]["avg_seconds"] * 1.05
    assert by_name["root_grandchildren"]["materialization_entries"] >= \
        by_name["root"]["materialization_entries"]
    assert by_name["none"]["materialization_entries"] == 0
