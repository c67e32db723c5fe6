"""Tests for the snapshot fast path: iterative multipoint execution,
parallel partition retrieval, and the codec configuration knob.

Covers the regressions the fast path could introduce:

* the iterative Steiner executor must handle skeletons deeper than Python's
  recursion limit (small leaves x long history => plans with thousands of
  chained eventlist steps),
* ``get_snapshot_parallel`` must return element-identical snapshots to its
  serial counterpart across component subsets, partition counts, and cache
  configurations,
* ``DeltaGraphConfig.codec`` must install the requested codec on the store
  (and refuse stores that cannot honour it).
"""

from __future__ import annotations

import sys

import pytest

from repro.cache import DeltaCache
from repro.core.delta import Delta
from repro.core.deltagraph import DeltaGraph, DeltaGraphConfig
from repro.core.events import EventList, new_node
from repro.core.skeleton import (
    SUPER_ROOT_ID,
    EdgeKind,
    NodeKind,
    SkeletonEdge,
    SkeletonNode,
)
from repro.core.snapshot import GraphSnapshot
from repro.errors import ConfigurationError
from repro.storage.memory_store import InMemoryKVStore
from repro.storage.packed import PackedCodec


# ---------------------------------------------------------------------------
# deep skeletons (iterative traversal regression)
# ---------------------------------------------------------------------------

def build_chain_index(num_leaves: int) -> DeltaGraph:
    """A DeltaGraph whose only route to late leaves is a long eventlist chain.

    Mirrors the skeleton produced by ``leaf_eventlist_size=1`` over a long
    history, without paying the full bulk-construction cost: leaf ``i`` holds
    nodes ``0..i`` at time ``10*i``, adjacent leaves are linked by one-event
    eventlists, and the super-root connects only to leaf 0.
    """
    index = DeltaGraph(store=InMemoryKVStore(),
                       config=DeltaGraphConfig(leaf_eventlist_size=1))
    previous = None
    for i in range(num_leaves):
        node = SkeletonNode(id=f"leaf:{i}", kind=NodeKind.LEAF, level=1,
                            index=i, time=10 * i)
        index.skeleton.add_node(node)
        if previous is None:
            delta = Delta.between(GraphSnapshot.empty(),
                                  GraphSnapshot({("N", 0): 1}))
            stats = index._store_delta("delta:super-root:chain", delta, None)
            index.skeleton.add_edge(SkeletonEdge(
                source=SUPER_ROOT_ID, target=node.id, kind=EdgeKind.DELTA,
                delta_id="delta:super-root:chain", stats=stats))
        else:
            chunk = EventList([new_node(10 * i, i)])
            eventlist_id = f"evl:{i - 1}"
            stats = index._store_eventlist(eventlist_id, chunk, None)
            index.skeleton.add_edge(SkeletonEdge(
                source=previous, target=node.id, kind=EdgeKind.EVENTLIST,
                delta_id=eventlist_id, stats=stats, event_count=1))
        previous = node.id
    index._last_indexed_time = 10 * (num_leaves - 1)
    return index


class TestDeepSkeleton:
    def test_multipoint_on_chain_deeper_than_recursion_limit(self):
        depth = sys.getrecursionlimit() + 500
        index = build_chain_index(depth)
        last = 10 * (depth - 1)
        times = [last, last - 10 * 7, 10 * (depth // 2)]
        snapshots = index.get_snapshots(times)
        for time, snapshot in zip(times, snapshots):
            expected_nodes = time // 10 + 1
            assert snapshot.num_nodes() == expected_nodes
            assert snapshot.has_node(expected_nodes - 1)
            assert not snapshot.has_node(expected_nodes)

    def test_singlepoint_on_deep_chain(self):
        depth = sys.getrecursionlimit() + 200
        index = build_chain_index(depth)
        snapshot = index.get_snapshot(10 * (depth - 1))
        assert snapshot.num_nodes() == depth


# ---------------------------------------------------------------------------
# parallel retrieval equivalence
# ---------------------------------------------------------------------------

COMPONENT_SUBSETS = [None, ("struct",), ("struct", "nodeattr"),
                     ("struct", "nodeattr", "edgeattr")]


@pytest.fixture(scope="module", params=[2, 4], ids=["2-partitions",
                                                    "4-partitions"])
def partitioned_indexes(request, small_churn_trace):
    """The same trace indexed with and without a delta cache."""
    num_partitions = request.param
    plain = DeltaGraph.build(small_churn_trace, leaf_eventlist_size=250,
                             arity=2, num_partitions=num_partitions)
    cached = DeltaGraph.build(small_churn_trace, leaf_eventlist_size=250,
                              arity=2, num_partitions=num_partitions,
                              cache=DeltaCache(max_bytes=8 << 20))
    return plain, cached


def spread_times(events, count=5):
    start, end = events.start_time, events.end_time
    return [start + (end - start) * (i + 1) // (count + 1)
            for i in range(count)]


class TestParallelSinglepointEquivalence:
    def test_parallel_matches_serial_across_components_and_workers(
            self, partitioned_indexes, small_churn_trace):
        plain, cached = partitioned_indexes
        times = spread_times(small_churn_trace)
        for index in (plain, cached):
            for components in COMPONENT_SUBSETS:
                for t in times:
                    serial = index.get_snapshot(t, components=components)
                    for workers in (2, 4):
                        parallel = index.get_snapshot_parallel(
                            t, components=components, workers=workers)
                        assert parallel.elements == serial.elements, (
                            f"t={t} components={components} "
                            f"workers={workers}")

    def test_parallel_with_warm_cache_matches(self, partitioned_indexes,
                                              small_churn_trace):
        _plain, cached = partitioned_indexes
        times = spread_times(small_churn_trace, count=3)
        for t in times:          # warm the cache
            cached.get_snapshot(t)
        for t in times:
            assert (cached.get_snapshot_parallel(t, workers=2).elements
                    == cached.get_snapshot(t).elements)


# ---------------------------------------------------------------------------
# codec configuration knob
# ---------------------------------------------------------------------------

class TestCodecKnob:
    def test_build_with_packed_codec_matches_default(self, small_churn_trace,
                                                     reference):
        packed = DeltaGraph.build(small_churn_trace, leaf_eventlist_size=250,
                                  arity=2, codec="packed")
        t = spread_times(small_churn_trace, count=1)[0]
        assert packed.get_snapshot(t).elements == reference(
            small_churn_trace, t).elements
        assert isinstance(packed.store._codec, PackedCodec)
        assert packed.index_size_bytes() > 0

    def test_same_codec_accepted_on_populated_store(self, small_churn_trace,
                                                    tmp_path):
        """Reopening a persisted index with the same codec config works."""
        from repro.storage.disk_store import DiskKVStore
        path = str(tmp_path / "index.db")
        store = DiskKVStore(path, codec=PackedCodec())
        DeltaGraph.build(small_churn_trace, store=store,
                         leaf_eventlist_size=250, codec="packed")
        store.close()
        reopened = DiskKVStore(path, codec=PackedCodec())
        assert len(reopened) > 0
        rebuilt = DeltaGraph.build(small_churn_trace, store=reopened,
                                   leaf_eventlist_size=250, codec="packed")
        t = spread_times(small_churn_trace, count=1)[0]
        assert rebuilt.get_snapshot(t).num_nodes() > 0
        reopened.close()

    def test_codec_rejected_on_populated_store(self, small_churn_trace):
        store = InMemoryKVStore()
        store.put("0/existing/struct", {"some": "value"})
        with pytest.raises(ConfigurationError):
            DeltaGraph.build(small_churn_trace, store=store,
                             leaf_eventlist_size=250, codec="packed")

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ConfigurationError):
            DeltaGraphConfig(codec="msgpack").validate()
