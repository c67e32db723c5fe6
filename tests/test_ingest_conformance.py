"""Differential conformance suite for live ingestion.

Incremental maintenance is exactly the kind of change that silently corrupts
retrieval, so this suite pins the defining property of the ingestion
subsystem with both a deterministic configuration grid and a
hypothesis-driven differential harness:

    for any trace E and split point s,
        build(E[:s]); append(E[s:])   ==   build(E)

where "==" means *byte-identical snapshots* for every query — singlepoint
and multipoint, packed and pickle codecs, memory and disk stores, cached and
uncached paths — plus op-counter evidence that appends touch O(changed
root-to-leaf path) store keys, never O(index).

The CI matrix restricts the codec axis through the REPRO_CONFORMANCE_CODECS
environment variable (comma-separated subset of ``pickle,packed``).
"""

from __future__ import annotations

import os
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.delta_cache import DeltaCache
from repro.core.deltagraph import DeltaGraph
from repro.core.events import (
    EventList,
    delete_edge,
    delete_node,
    new_edge,
    new_node,
    update_node_attr,
)
from repro.core.snapshot import GraphSnapshot
from repro.storage.disk_store import DiskKVStore
from repro.storage.memory_store import InMemoryKVStore

CODECS = [c.strip() for c in os.environ.get(
    "REPRO_CONFORMANCE_CODECS", "pickle,packed").split(",") if c.strip()]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def make_trace(num_events: int, seed: int) -> EventList:
    """A deterministic, consistent trace (deletes only touch live elements)."""
    rng = random.Random(seed)
    events = []
    live_nodes: dict = {}
    live_edges: dict = {}
    next_node, next_edge, time = 0, 0, 0
    while len(events) < num_events:
        time += rng.randint(1, 3)
        roll = rng.random()
        if roll < 0.35 or len(live_nodes) < 2:
            attrs = {"label": f"n{next_node % 7}"} if rng.random() < 0.5 else {}
            events.append(new_node(time, next_node, attrs))
            live_nodes[next_node] = dict(attrs)
            next_node += 1
        elif roll < 0.65:
            src, dst = rng.sample(sorted(live_nodes), 2)
            events.append(new_edge(time, next_edge, src, dst))
            live_edges[next_edge] = (src, dst)
            next_edge += 1
        elif roll < 0.75 and live_edges:
            edge_id = rng.choice(sorted(live_edges))
            src, dst = live_edges.pop(edge_id)
            events.append(delete_edge(time, edge_id, src, dst))
        elif roll < 0.85 and live_nodes:
            node_id = rng.choice(sorted(live_nodes))
            attrs = live_nodes.pop(node_id)
            doomed = [e for e, (s, d) in live_edges.items()
                      if node_id in (s, d)]
            for edge_id in doomed:
                src, dst = live_edges.pop(edge_id)
                events.append(delete_edge(time, edge_id, src, dst))
            events.append(delete_node(time, node_id, attrs))
        else:
            node_id = rng.choice(sorted(live_nodes))
            old = live_nodes[node_id].get("w")
            new = rng.randint(0, 9)
            events.append(update_node_attr(time, node_id, "w", old, new))
            live_nodes[node_id]["w"] = new
    return EventList(events[:num_events])


def _normalize(value):
    """Order-insensitive canonical form (dicts pickle in insertion order)."""
    if isinstance(value, dict):
        return tuple(sorted(((k, _normalize(v)) for k, v in value.items()),
                            key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_normalize(v) for v in value), key=repr))
    return value


def canonical_bytes(snapshot: GraphSnapshot) -> bytes:
    """A canonical byte serialization of a snapshot's element map.

    ``repr``-based rather than pickle-based: pickle memoizes by object
    identity, so two value-equal snapshots can pickle differently when one
    shares substructure the other copies.
    """
    items = sorted(((key, _normalize(value))
                    for key, value in snapshot.element_map().items()),
                   key=lambda kv: repr(kv[0]))
    return repr(items).encode("utf-8")


def query_times(events: EventList, count: int = 7) -> list:
    """Timepoints spread over the trace, including both endpoints."""
    start, end = events.start_time, events.end_time
    times = [start + (end - start) * i // (count - 1) for i in range(count)]
    return sorted(set(times))


def assert_conformant(maintained: DeltaGraph, rebuilt: DeltaGraph,
                      events: EventList) -> None:
    """Byte-identical singlepoint and multipoint retrieval everywhere."""
    times = query_times(events)
    for t in times:
        assert canonical_bytes(maintained.get_snapshot(t)) == \
            canonical_bytes(rebuilt.get_snapshot(t)), f"singlepoint @ t={t}"
    for got, want in zip(maintained.get_snapshots(times),
                         rebuilt.get_snapshots(times)):
        assert canonical_bytes(got) == canonical_bytes(want), \
            f"multipoint @ t={want.time}"


def assert_bounded_append_cost(index: DeltaGraph) -> None:
    """Appends must touch O(changed root-to-leaf path) store keys.

    Per sealed leaf the permanent writes are one eventlist (<= 4 components
    x partitions) plus at most one full-arity collapse per level; each
    re-finalization rebuilds at most one ragged interior per level plus the
    root attachments.  Everything is bounded by the skeleton height — an
    O(index) rewrite would exceed this by orders of magnitude.
    """
    stats = index.ingest_stats
    if not stats.leaves_sealed:
        return
    height = max(index.skeleton.height(), 2)
    arity = index.config.arity
    hierarchies = len(index.config.differential_functions)
    partitions = index.config.num_partitions
    per_seal_budget = (4 * partitions + 2  # the sealed eventlist (+aux)
                       + hierarchies * (height + 1) * arity
                       * (3 * partitions + 2))  # collapse + refinalize path
    assert stats.store_keys_written <= stats.leaves_sealed * per_seal_budget, (
        f"append wrote {stats.store_keys_written} keys for "
        f"{stats.leaves_sealed} seals (budget {per_seal_budget}/seal) — "
        "that smells like an O(index) rewrite")


# ---------------------------------------------------------------------------
# deterministic configuration grid
# ---------------------------------------------------------------------------

class TestConformanceGrid:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("store_kind", ["memory", "disk"])
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["uncached", "cached"])
    def test_append_matches_rebuild(self, codec, store_kind, cached,
                                    tmp_path):
        events = make_trace(700, seed=29)
        split = int(len(events) * 0.6)

        def build(trace, tag):
            store = (DiskKVStore(str(tmp_path / f"{tag}.db"))
                     if store_kind == "disk" else InMemoryKVStore())
            cache = DeltaCache(max_bytes=8 << 20) if cached else None
            return DeltaGraph.build(trace, store=store, codec=codec,
                                    leaf_eventlist_size=64, arity=2,
                                    cache=cache)

        maintained = build(events[:split], "prefix")
        maintained.append_batch(events[split:])
        rebuilt = build(events, "full")
        assert_conformant(maintained, rebuilt, events)
        assert_bounded_append_cost(maintained)

    @pytest.mark.parametrize("split_fraction", [0.1, 0.5, 0.95])
    def test_split_points(self, split_fraction):
        events = make_trace(500, seed=31)
        split = max(1, int(len(events) * split_fraction))
        maintained = DeltaGraph.build(events[:split], leaf_eventlist_size=50,
                                      arity=3)
        # Mixed single-event and batched appends exercise both entry points.
        suffix = list(events)[split:]
        for event in suffix[:5]:
            maintained.append(event)
        maintained.append_batch(suffix[5:])
        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=50, arity=3)
        assert_conformant(maintained, rebuilt, events)
        assert_bounded_append_cost(maintained)

    def test_multiple_hierarchies(self):
        events = make_trace(400, seed=37)
        split = len(events) // 2
        kwargs = dict(leaf_eventlist_size=40, arity=2,
                      differential_functions=("intersection", "balanced"))
        maintained = DeltaGraph.build(events[:split], **kwargs)
        maintained.append_batch(events[split:])
        rebuilt = DeltaGraph.build(events, **kwargs)
        assert_conformant(maintained, rebuilt, events)

    def test_partitioned(self):
        events = make_trace(400, seed=41)
        split = len(events) // 3
        kwargs = dict(leaf_eventlist_size=40, arity=2, num_partitions=3)
        maintained = DeltaGraph.build(events[:split], **kwargs)
        maintained.append_batch(events[split:])
        rebuilt = DeltaGraph.build(events, **kwargs)
        assert_conformant(maintained, rebuilt, events)


# ---------------------------------------------------------------------------
# hypothesis-driven differential property
# ---------------------------------------------------------------------------

@st.composite
def trace_and_split(draw):
    num_events = draw(st.integers(30, 220))
    seed = draw(st.integers(0, 2**20))
    split = draw(st.integers(1, num_events))
    leaf_size = draw(st.sampled_from([8, 16, 32]))
    arity = draw(st.sampled_from([2, 3]))
    return num_events, seed, split, leaf_size, arity


@given(trace_and_split())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_property(params):
    num_events, seed, split, leaf_size, arity = params
    events = make_trace(num_events, seed)
    maintained = DeltaGraph.build(events[:split],
                                  leaf_eventlist_size=leaf_size, arity=arity)
    maintained.append_batch(events[split:])
    rebuilt = DeltaGraph.build(events, leaf_eventlist_size=leaf_size,
                               arity=arity)
    assert_conformant(maintained, rebuilt, events)
    assert_bounded_append_cost(maintained)
    # The maintained current graph equals a full replay.
    replay = GraphSnapshot.empty()
    for event in events:
        replay.apply_event(event)
    assert maintained.current_graph().elements == replay.elements


@given(st.integers(0, 2**20), st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_incremental_one_by_one(seed, batch):
    """Appending in dribbles (forcing many seal/refinalize cycles) conforms."""
    events = make_trace(120, seed)
    split = len(events) // 4
    maintained = DeltaGraph.build(events[:split], leaf_eventlist_size=10,
                                  arity=2)
    suffix = list(events)[split:]
    for i in range(0, len(suffix), batch):
        maintained.append_batch(suffix[i:i + batch])
    rebuilt = DeltaGraph.build(events, leaf_eventlist_size=10, arity=2)
    assert_conformant(maintained, rebuilt, events)


# ---------------------------------------------------------------------------
# explicit seals
# ---------------------------------------------------------------------------

class TestSealPolicy:
    def test_partial_seal_flushes_tail(self):
        events = make_trace(200, seed=47)
        split = len(events) - 7  # tail smaller than any leaf
        index = DeltaGraph.build(events[:split], leaf_eventlist_size=50,
                                 arity=2)
        index.append_batch(events[split:])
        assert len(index._recent_events) == 7
        assert index.seal() == 1
        assert len(index._recent_events) == 0
        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=50, arity=2)
        assert_conformant(index, rebuilt, events)

    def test_append_after_partial_seal_still_conforms(self):
        """A forced partial leaf must not derail later automatic seals."""
        events = make_trace(300, seed=73)
        first = len(events) // 3
        second = 2 * len(events) // 3
        index = DeltaGraph.build(events[:first], leaf_eventlist_size=40,
                                 arity=2)
        index.append_batch(list(events)[first:second])
        index.seal()  # flush the tail into a partial leaf
        index.append_batch(list(events)[second:])
        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=40, arity=2)
        assert_conformant(index, rebuilt, events)

    def test_build_empty_then_append_everything(self):
        """The degenerate split: an empty build ingesting the whole trace."""
        events = make_trace(250, seed=79)
        index = DeltaGraph.build([], leaf_eventlist_size=25, arity=2)
        index.append_batch(events)
        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=25, arity=2)
        assert_conformant(index, rebuilt, events)


# ---------------------------------------------------------------------------
# auxiliary indexes ride along
# ---------------------------------------------------------------------------

def test_aux_index_maintained_through_append():
    from repro.auxindex.path_index import PathIndex

    events = make_trace(180, seed=59)
    split = len(events) // 2
    maintained = DeltaGraph.build(events[:split], leaf_eventlist_size=16,
                                  arity=2, aux_indexes=[PathIndex(path_length=3)])
    maintained.append_batch(events[split:])
    rebuilt = DeltaGraph.build(events, leaf_eventlist_size=16, arity=2,
                               aux_indexes=[PathIndex(path_length=3)])
    for t in query_times(events, count=5):
        if maintained._last_indexed_time is not None and \
                t > maintained._last_indexed_time:
            continue  # aux retrieval covers indexed history only
        assert maintained.get_aux_snapshot("paths", t) == \
            rebuilt.get_aux_snapshot("paths", t)


def test_aux_events_across_leaf_boundary_batch():
    """One batch spanning a seal boundary must advance aux state per leaf.

    Regression: an edge-add early in the batch creates an indexed path; a
    delete after the boundary must see that path in the aux state (it is
    derived from the leaf the path was sealed into) and remove it — deriving
    aux events against the pre-batch state would leave a ghost path behind.
    """
    from repro.auxindex.path_index import PathIndex

    prefix = [
        new_node(1, 0, {"label": "a"}), new_node(2, 1, {"label": "b"}),
        new_node(3, 2, {"label": "c"}), new_node(4, 3, {"label": "d"}),
    ]
    suffix = [
        new_edge(5, 0, 0, 1), new_edge(6, 1, 1, 2),   # creates path a-b-c
        new_node(7, 4, {"label": "e"}), new_node(8, 5, {"label": "f"}),
        # --- leaf boundary (L=4) ---
        delete_edge(9, 1, 1, 2),                      # breaks the path
        delete_node(10, 2, {"label": "c"}),
        new_node(11, 6, {"label": "g"}), new_node(12, 7, {"label": "h"}),
    ]
    kwargs = dict(leaf_eventlist_size=4, arity=2)
    maintained = DeltaGraph.build(prefix, aux_indexes=[PathIndex(path_length=3)],
                                  **kwargs)
    maintained.append_batch(suffix)  # one batch, two seals
    rebuilt = DeltaGraph.build(prefix + suffix,
                               aux_indexes=[PathIndex(path_length=3)], **kwargs)
    for t in (4, 8, 12):
        assert maintained.get_aux_snapshot("paths", t) == \
            rebuilt.get_aux_snapshot("paths", t), f"aux state @ t={t}"


# ---------------------------------------------------------------------------
# stale reads: warm cache + GraphPool must serve post-append truth
# ---------------------------------------------------------------------------

class TestStaleReads:
    def test_warm_cache_and_pool_see_post_append_truth(self):
        from repro.graphpool.pool import GraphPool
        from repro.query.managers import GraphManager

        events = make_trace(600, seed=67)
        split = int(len(events) * 0.7)
        cache = DeltaCache(max_bytes=16 << 20)
        index = DeltaGraph.build(events[:split], leaf_eventlist_size=40,
                                 arity=2, cache=cache)
        gm = GraphManager(index, pool=GraphPool())
        t_mid = (events.start_time + events[split - 1].time) // 2
        t_edge = index._last_indexed_time

        # Warm every granularity the cache holds: raw pieces, assembled
        # entries, and a pool registration for the pre-append truth.
        warm_mid = gm.get_hist_graph(t_mid, "+node:all")
        warm_edge = gm.get_hist_graph(t_edge, "+node:all")
        assert cache.stats().entries > 0

        # Ingest enough to seal several leaves (tearing down and rebuilding
        # the provisional hierarchy top the warm queries traversed).
        gm.ingest(list(events)[split:])
        assert index.ingest_stats.leaves_sealed >= 1

        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=40, arity=2)
        t_end = events.end_time
        for t in (t_mid, t_edge, t_end):
            got = gm.get_hist_graph(t, "+node:all")
            assert canonical_bytes(got.to_snapshot()) == \
                canonical_bytes(rebuilt.get_snapshot(t)), f"stale read @ t={t}"
        # The pre-append views remain what they were registered as.
        gm.release(warm_mid)
        gm.release(warm_edge)

    def test_two_refinalizes_purge_retired_payloads(self):
        """Retired provisional payloads survive exactly one generation.

        Seals only mark the hierarchy top dirty; the rebuild (and with it
        the retirement of the previous generation) runs at the next plan,
        and the *purge* of retired keys only at the rebuild after that — so
        a query planned before an append always finds its payloads.
        """
        events = make_trace(400, seed=71)
        split = len(events) // 2
        index = DeltaGraph.build(events[:split], leaf_eventlist_size=30,
                                 arity=2)
        suffix = list(events)[split:]
        index.append_batch(suffix[:60])     # seals; top marked dirty
        assert not index._retired, "retirement is deferred to the next plan"
        index.get_snapshot(events[split].time)  # plan -> rebuild + retire
        assert index._retired, "the rebuild must retire generation 0"
        retired_keys = [key for _gen, _id, keys in index._retired
                        for key in keys]
        assert all(index.store.contains(key) for key in retired_keys), \
            "grace period: retired keys must survive one generation"
        index.append_batch(suffix[60:120])  # seals again
        index.get_snapshot(events[split].time)  # next rebuild purges
        assert index.ingest_stats.store_keys_deleted >= len(retired_keys)
        assert not any(index.store.contains(key) for key in retired_keys)


# ---------------------------------------------------------------------------
# failure safety: rejected events, store errors mid-rebuild, manager sync
# ---------------------------------------------------------------------------

class TestIngestFailureSafety:
    def test_rejected_out_of_order_event_leaves_state_clean(self):
        """A rejected event must not leave a phantom element behind."""
        from repro.core.events import new_node
        from repro.errors import EventError

        events = make_trace(100, seed=83)
        index = DeltaGraph.build(events, leaf_eventlist_size=20, arity=2)
        end = events.end_time
        bad = [new_node(end + 10, 9001), new_node(end + 5, 9002)]
        with pytest.raises(EventError):
            index.append_batch(bad)
        current = index.current_graph().element_map()
        # The chronologically valid prefix was accepted; the rejected event
        # appears nowhere — not in the current graph, not in the recent
        # eventlist (so no later seal can bake it into the index).
        assert ("N", 9001) in current
        assert ("N", 9002) not in current
        assert all(e.node_id != 9002 for e in index._recent_events)
        assert index.ingest_stats.events_appended == 1  # the accepted prefix

    def test_store_failure_during_top_rebuild_retries_cleanly(self):
        """A store error mid re-finalization must not orphan a partial top."""
        events = make_trace(200, seed=89)
        split = len(events) // 2
        index = DeltaGraph.build(events[:split], leaf_eventlist_size=20,
                                 arity=2)
        index.append_batch(list(events)[split:])  # seals; top marked dirty

        real_put_many = index.store.put_many

        def failing_put_many(items):
            raise RuntimeError("injected store failure")

        index.store.put_many = failing_put_many
        with pytest.raises(RuntimeError):
            index.get_snapshot(events.end_time)  # plan triggers the rebuild
        index.store.put_many = real_put_many
        # The failed rebuild was recorded, so the retry tears it down and
        # rebuilds; retrieval then matches a fresh full build everywhere.
        rebuilt = DeltaGraph.build(events, leaf_eventlist_size=20, arity=2)
        assert_conformant(index, rebuilt, events)

    def test_manager_ingest_failure_keeps_pool_in_sync(self):
        """On a mid-batch failure the pool gets exactly the accepted prefix."""
        from repro.core.events import new_node
        from repro.errors import EventError
        from repro.graphpool.pool import GraphPool
        from repro.query.managers import GraphManager

        events = make_trace(80, seed=97)
        index = DeltaGraph.build(events, leaf_eventlist_size=30, arity=2)
        gm = GraphManager(index, pool=GraphPool())
        end = events.end_time
        bad = [new_node(end + 1, 7001), new_node(end + 2, 7002),
               new_node(end - 50, 7003)]
        with pytest.raises(EventError):
            gm.ingest(bad)
        current_id = gm.pool.allocator.current.graph_id
        pool_current = gm.pool.extract_snapshot(current_id).element_map()
        index_current = index.current_graph().element_map()
        assert pool_current == index_current
        assert ("N", 7002) in pool_current and ("N", 7003) not in pool_current


# ---------------------------------------------------------------------------
# materialization survives ingestion
# ---------------------------------------------------------------------------

def test_materialized_roots_follow_appends():
    events = make_trace(300, seed=61)
    split = len(events) // 2
    index = DeltaGraph.build(events[:split], leaf_eventlist_size=25, arity=2)
    index.materialize_roots()
    assert index.materialized_nodes()
    index.append_batch(events[split:])
    # The provisional roots were torn down; their replacements are
    # re-materialized so the deployment keeps its zero-cost shortcuts.
    assert index.materialized_nodes()
    for node_id in index.materialized_nodes():
        assert node_id in index.skeleton.nodes
    rebuilt = DeltaGraph.build(events, leaf_eventlist_size=25, arity=2)
    assert_conformant(index, rebuilt, events)
