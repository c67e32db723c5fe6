"""Figure 8(d): benefit of columnar storage (structure-only retrieval).

The paper stores the structural, node-attribute, and edge-attribute parts of
every delta separately; a query that needs only the network structure skips
the attribute payloads entirely and is more than 3x faster on Dataset 2
(whose nodes carry ten attribute pairs).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.deltagraph import DeltaGraph
from repro.core.snapshot import COMPONENT_STRUCT
from repro.storage.instrumented import InstrumentedKVStore
from repro.storage.memory_store import InMemoryKVStore

from conftest import uniform_times


@pytest.fixture(scope="module")
def index(dataset2):
    store = InstrumentedKVStore(InMemoryKVStore())
    return DeltaGraph.build(dataset2, store=store, leaf_eventlist_size=1000,
                            arity=4,
                            differential_functions=("intersection",)), store


def test_fig8d_structure_only_vs_full(benchmark, recorder, index, dataset2):
    delta_graph, store = index
    times = uniform_times(dataset2, 15)
    full_series, structure_series = [], []
    store.reset_stats()
    for t in times:
        started = time.perf_counter()
        delta_graph.get_snapshot(t)          # structure + all attributes
        full_series.append(time.perf_counter() - started)
    full_bytes = store.stats.bytes_read
    store.reset_stats()
    for t in times:
        started = time.perf_counter()
        delta_graph.get_snapshot(t, components=[COMPONENT_STRUCT])
        structure_series.append(time.perf_counter() - started)
    structure_bytes = store.stats.bytes_read
    benchmark(lambda: delta_graph.get_snapshot(times[-1],
                                               components=[COMPONENT_STRUCT]))
    speedup = statistics.mean(full_series) / statistics.mean(structure_series)
    recorder("fig8d_columnar", {
        "query_times": times,
        "structure_and_attributes_seconds": full_series,
        "structure_only_seconds": structure_series,
        "bytes_read": {"full": full_bytes, "structure_only": structure_bytes},
        "speedup": speedup,
    }, timing=True)
    print("\n[fig8d] structure+attributes "
          f"{statistics.mean(full_series) * 1000:.1f} ms / {full_bytes} B vs "
          f"structure-only {statistics.mean(structure_series) * 1000:.1f} ms "
          f"/ {structure_bytes} B (speedup x{speedup:.1f})")
    # Paper shape: structure-only retrieval is clearly faster and reads less.
    assert structure_bytes < full_bytes
    assert speedup > 1.3
