"""In-text result (Section 4.7): subgraph pattern matching over history.

The paper extends the DeltaGraph with a path index over node labels (ten
random labels on Dataset 1), and answers a subgraph pattern query over the
entire history of the network in 148 seconds, returning 14,109 matches.  At
our scale the workload is smaller, but the experiment is the same: build the
auxiliary path index during DeltaGraph construction, then find every
occurrence of a labeled pattern across all indexed timepoints.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.auxindex.path_index import PathIndex
from repro.auxindex.pattern_match import HistoricalPatternMatchQuery, PatternGraph
from repro.core.deltagraph import DeltaGraph
from repro.core.events import EventList, new_edge, new_node

NUM_LABELS = 10
NUM_NODES = 250
NUM_EDGES = 700


def _labeled_growing_trace(seed=13) -> EventList:
    rng = random.Random(seed)
    labels = [f"L{i}" for i in range(NUM_LABELS)]
    events = []
    for node_id in range(NUM_NODES):
        events.append(new_node(node_id + 1, node_id,
                               {"label": rng.choice(labels)}))
    added = set()
    edge_id, t = 0, NUM_NODES + 1
    while edge_id < NUM_EDGES:
        a, b = rng.randrange(NUM_NODES), rng.randrange(NUM_NODES)
        key = (min(a, b), max(a, b))
        if a == b or key in added:
            continue
        added.add(key)
        events.append(new_edge(t, edge_id, a, b))
        edge_id += 1
        t += 1
    return EventList(events)


@pytest.fixture(scope="module")
def indexed_with_paths():
    events = _labeled_growing_trace()
    path_index = PathIndex(label_attr="label", path_length=3)
    started = time.perf_counter()
    index = DeltaGraph.build(events, leaf_eventlist_size=200, arity=4,
                             differential_functions=("intersection",),
                             aux_indexes=[path_index])
    build_seconds = time.perf_counter() - started
    return index, path_index, events, build_seconds


def test_pattern_matching_over_history(benchmark, recorder,
                                       indexed_with_paths):
    index, path_index, events, build_seconds = indexed_with_paths
    pattern = PatternGraph(labels={"a": "L0", "b": "L1", "c": "L2"},
                           edges=[("a", "b"), ("b", "c")])
    query = HistoricalPatternMatchQuery(path_index, pattern)
    started = time.perf_counter()
    result = query.run(index)
    query_seconds = time.perf_counter() - started
    final_time = max(result["per_time"])
    benchmark(lambda: index.get_aux_snapshot("paths", final_time))
    recorder("text_pattern_matching", {
        "index_build_seconds": build_seconds,
        "query_seconds": query_seconds,
        "total_matches_over_history": result["total_matches"],
        "timepoints_evaluated": len(result["per_time"]),
        "matches_at_final_time": len(result["per_time"][final_time]),
    }, timing=True)
    print(f"\n[pattern matching] build {build_seconds:.2f}s, "
          f"history-wide query {query_seconds:.2f}s, "
          f"{result['total_matches']} matches over "
          f"{len(result['per_time'])} timepoints "
          f"({len(result['per_time'][final_time])} at the final snapshot)")
    # The query finds matches and, on a growing-only graph, the per-timepoint
    # match count is non-decreasing.
    assert result["total_matches"] > 0
    counts = [len(m) for _t, m in sorted(result["per_time"].items())]
    assert counts == sorted(counts)
