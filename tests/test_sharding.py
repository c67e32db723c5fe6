"""Unit tests for the time-sharded index federation (repro.sharding).

Covers the shard policies (cut placement, the never-split-a-timestamp
invariant, validation), the cross-shard router (ownership, boundaries,
shard-qualified node ids), live-tail era rollover, the seal-then-purge
cache/store hygiene of a closed era, aggregated statistics, and the
manager/GraphPool wiring.  Byte-level conformance against an unsharded
DeltaGraph lives in ``test_sharding_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.cache.delta_cache import DeltaCache
from repro.core.deltagraph import DeltaGraph
from repro.core.events import EventList, new_node
from repro.core.snapshot import GraphSnapshot
from repro.errors import ConfigurationError, DeltaGraphIndexError, QueryError
from repro.query.managers import GraphManager, HistoryManager
from repro.sharding import (
    EventCountPolicy,
    ExplicitBoundariesPolicy,
    ShardedHistoryIndex,
    TimeSpanPolicy,
)
from repro.storage.instrumented import InstrumentedKVStore
from repro.storage.memory_store import InMemoryKVStore


def simple_trace(num_events: int, tie_every: int = 5,
                 start: int = 10) -> EventList:
    """Deterministic growing trace with deliberate timestamp ties."""
    events, t = [], start
    for i in range(num_events):
        if i % tie_every != 0:
            t += 1
        events.append(new_node(t, i, {"w": i % 3}))
    return EventList(events)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_event_count_split_defers_past_ties(self):
        events = simple_trace(100, tie_every=4)
        eras = EventCountPolicy(30).split(events)
        assert sum(len(e) for _t, e in eras) == 100
        for (_lo_a, era_a), (lo_b, _era_b) in zip(eras, eras[1:]):
            assert len(era_a) >= 30
            # the next era starts strictly after the previous era's newest
            # timestamp: a timestamp is never split across eras.
            assert era_a.end_time < lo_b

    def test_time_span_split_places_aligned_boundaries(self):
        events = simple_trace(80)
        policy = TimeSpanPolicy(17)
        eras = policy.split(events)
        first_lo = eras[0][0]
        for lo, era in eras:
            assert (lo - first_lo) % 17 == 0
            assert era.start_time >= lo
            assert era.end_time < lo + 17 or era is eras[-1][1]

    def test_explicit_boundaries_split(self):
        events = simple_trace(60, start=0)
        cuts = [events.start_time + 12, events.start_time + 30]
        eras = ExplicitBoundariesPolicy(cuts).split(events)
        assert [lo for lo, _e in eras][1:] == cuts
        for lo, era in eras[1:]:
            assert era.start_time >= lo

    def test_split_is_exhaustive_and_ordered(self):
        events = simple_trace(90)
        for policy in (EventCountPolicy(25), TimeSpanPolicy(13),
                       ExplicitBoundariesPolicy([20, 40, 60])):
            eras = policy.split(events)
            flattened = [e for _lo, era in eras for e in era]
            assert flattened == list(events)
            los = [lo for lo, _e in eras]
            assert los == sorted(los)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            EventCountPolicy(0)
        with pytest.raises(ConfigurationError):
            TimeSpanPolicy(0)
        with pytest.raises(ConfigurationError):
            ExplicitBoundariesPolicy([])
        with pytest.raises(ConfigurationError):
            ExplicitBoundariesPolicy([5, 5])
        with pytest.raises(ConfigurationError):
            ExplicitBoundariesPolicy([9, 3])

    def test_empty_trace_splits_to_no_eras(self):
        assert EventCountPolicy(10).split(EventList()) == []


# ---------------------------------------------------------------------------
# routing and shard metadata
# ---------------------------------------------------------------------------

def build_sharded(events, per_era=40, **kwargs):
    return ShardedHistoryIndex.build(events, EventCountPolicy(per_era),
                                     leaf_eventlist_size=16, arity=2,
                                     **kwargs)


class TestRouting:
    def test_ownership_spans_are_contiguous(self):
        index = build_sharded(simple_trace(200))
        shards = index.shards
        assert len(shards) > 2
        assert all(s.sealed for s in shards[:-1])
        assert not shards[-1].sealed and shards[-1].t_hi is None
        for left, right in zip(shards, shards[1:]):
            assert left.t_hi == right.t_lo

    def test_boundary_times_route_to_the_later_shard(self):
        index = build_sharded(simple_trace(200))
        for shard in index.shards[1:]:
            assert index.shard_for(shard.t_lo) is shard
            assert index.shard_for(shard.t_lo - 1).t_hi == shard.t_lo

    def test_prehistory_routes_to_the_first_shard(self):
        index = build_sharded(simple_trace(100))
        assert index.shard_for(index.shards[0].t_lo - 100).shard_id == 0

    def test_times_past_the_tail_route_to_the_tail(self):
        index = build_sharded(simple_trace(100))
        assert index.shard_for(10 ** 9) is index.tail

    def test_shard_keys(self):
        index = build_sharded(simple_trace(120))
        assert index.shard_key_for_time(index.shards[1].t_lo) == "era1"
        leaf = index.shards[0].index.skeleton.leaves()[0]
        assert index.shard_key_for_node(f"era0/{leaf.id}") == "era0"
        assert index.node_time(f"era0/{leaf.id}") == leaf.time

    def test_unqualified_node_ids_are_rejected(self):
        index = build_sharded(simple_trace(80))
        for bad in ("leaf:0", "era9/leaf:0", "eraX/leaf:0", "era0"):
            with pytest.raises(DeltaGraphIndexError):
                index.node_time(bad)

    def test_describe_mentions_policy_and_shards(self):
        index = build_sharded(simple_trace(80))
        text = index.describe()
        assert "EventCountPolicy" in text and "shards" in text


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

class TestBuildGuards:
    def test_aux_indexes_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedHistoryIndex.build(simple_trace(10), EventCountPolicy(5),
                                      aux_indexes=[object()])

    def test_per_shard_knobs_rejected(self):
        for knob in ({"store": InMemoryKVStore()}, {"start_time": 3}):
            with pytest.raises(ConfigurationError):
                ShardedHistoryIndex.build(simple_trace(10),
                                          EventCountPolicy(5), **knob)

    def test_build_workers_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedHistoryIndex.build(simple_trace(10), EventCountPolicy(5),
                                      build_workers=0)

    def test_empty_trace_opens_a_bare_tail(self):
        index = ShardedHistoryIndex.build([], EventCountPolicy(20),
                                          leaf_eventlist_size=8)
        assert len(index.shards) == 1 and not index.tail.sealed
        events = simple_trace(50)
        assert index.append_batch(list(events)) == 50
        assert len(index.shards) >= 2
        snap = index.get_snapshot(events.end_time)
        assert len(snap.element_map()) == len(
            DeltaGraph.build(events).get_snapshot(events.end_time)
            .element_map())

    def test_initial_graph_prehistory_stays_queryable(self):
        """Queries before the first event answer from the seed graph.

        Era 0 must anchor at the initial graph's own timestamp (like an
        unsharded build), not at the first event.
        """
        seed = GraphSnapshot.empty(time=5)
        seed.apply_event(new_node(5, 999, {"w": 1}))
        events = simple_trace(80, start=20)
        sharded = ShardedHistoryIndex.build(
            events, EventCountPolicy(30), leaf_eventlist_size=16,
            initial_graph=seed)
        reference = DeltaGraph.build(events, leaf_eventlist_size=16,
                                     initial_graph=seed)
        for t in (5, 12, 20, events.end_time):
            assert sharded.get_snapshot(t).element_map() == \
                reference.get_snapshot(t).element_map(), f"@ {t}"

    def test_empty_build_accepts_negative_timestamps(self):
        """A placeholder tail re-anchors below its provisional start."""
        index = ShardedHistoryIndex.build([], EventCountPolicy(20),
                                          leaf_eventlist_size=8)
        events = [new_node(t, 100 + t) for t in range(-40, 20)]
        assert index.append_batch(events) == len(events)
        reference = DeltaGraph.build(events, leaf_eventlist_size=8)
        for t in (-40, -5, 0, 19):
            assert index.get_snapshot(t).element_map() == \
                reference.get_snapshot(t).element_map(), f"@ {t}"

    def test_empty_build_re_anchors_above_its_placeholder_too(self):
        """A first event past the placeholder moves leaf 0 up to it.

        Without the re-anchor, times between the placeholder (0) and the
        first event would answer with an empty snapshot where a bulk build
        raises TimeOutOfRangeError.
        """
        from repro.errors import TimeOutOfRangeError
        index = ShardedHistoryIndex.build([], EventCountPolicy(20),
                                          leaf_eventlist_size=8)
        index.append(new_node(100, 1))
        reference = ShardedHistoryIndex.build([new_node(100, 1)],
                                              EventCountPolicy(20),
                                              leaf_eventlist_size=8)
        assert index.get_snapshot(100).element_map() == \
            reference.get_snapshot(100).element_map()
        for sharded in (index, reference):
            with pytest.raises(TimeOutOfRangeError):
                sharded.get_snapshot(50)

    def test_parallel_and_sequential_builds_agree(self):
        events = simple_trace(160)
        seq = build_sharded(events, build_workers=1)
        par = build_sharded(events, build_workers=4)
        assert [(s.t_lo, s.t_hi, s.event_count) for s in seq.shards] == \
            [(s.t_lo, s.t_hi, s.event_count) for s in par.shards]
        t = events.end_time // 2
        assert seq.get_snapshot(t).element_map() == \
            par.get_snapshot(t).element_map()


# ---------------------------------------------------------------------------
# live-tail rollover
# ---------------------------------------------------------------------------

class TestRollover:
    def test_single_batch_spanning_several_rollovers(self):
        events = simple_trace(300)
        index = ShardedHistoryIndex.build(
            list(events)[:50], EventCountPolicy(60), leaf_eventlist_size=16)
        appended = index.append_batch(list(events)[50:])
        assert appended == 250
        assert len(index.shards) >= 4
        assert all(s.sealed for s in index.shards[:-1])
        assert sum(s.event_count for s in index.shards) == 300
        assert index.ingest_stats.events_appended == 250

    def test_rollover_layout_matches_bulk_layout(self):
        events = simple_trace(260)
        for split in (0, 1, 97, 130, 259, 260):
            live = ShardedHistoryIndex.build(
                list(events)[:split], EventCountPolicy(55),
                leaf_eventlist_size=16)
            live.append_batch(list(events)[split:])
            bulk = ShardedHistoryIndex.build(
                events, EventCountPolicy(55), leaf_eventlist_size=16)
            assert [(s.t_lo, s.t_hi, s.event_count) for s in live.shards] \
                == [(s.t_lo, s.t_hi, s.event_count) for s in bulk.shards], \
                f"split={split}"

    def test_sealed_era_purge_flushes_cache_groups_after_grace(self):
        """Sealed eras flush retired payloads everywhere — after the grace.

        Regression for the seal-then-purge hygiene rule: a sealed era never
        seals again, so without an explicit sweep its final retired
        provisional generation would pin dead store keys and DeltaCache
        entries until eviction.  The contract: the generation survives the
        rollover itself (queries planned just before it may still read
        those payloads — the read-during-ingest grace), and is flushed from
        the store *and* the shared cache by ``purge_retired()`` or,
        automatically, at the next rollover.
        """
        cache = DeltaCache(max_bytes=1 << 20)
        events = simple_trace(320)
        index = ShardedHistoryIndex.build(
            list(events)[:90], EventCountPolicy(100),
            leaf_eventlist_size=16, cache=cache)
        tail = index.tail
        # Warm the cache over the tail's provisional top.
        index.get_snapshot(tail.last_time)
        provisional_ids = list(tail.index._provisional.delta_ids)
        assert provisional_ids, "tail must have a provisional top"
        warmed = [key for key in cache._entries
                  if any(pid in key for pid in provisional_ids)]
        assert warmed, "queries must have cached provisional payloads"

        index.append_batch(list(events)[90:150])
        assert tail.sealed and len(index.shards) == 2
        # Grace period: the retired generation survives its own rollover.
        assert tail.index._retired, "sealed era must keep one grace period"

        index.purge_retired()
        stale_cache = [key for key in cache._entries
                       if any(pid in key for pid in provisional_ids)]
        assert stale_cache == [], \
            "sealed-then-purged era left dead cache entries pinned"
        stale_store = [key for key in tail.store.keys()
                       if any(pid in key for pid in provisional_ids)]
        assert stale_store == [], "sealed era left retired store keys"
        assert tail.index._retired == []

        # Later rollovers flush earlier sealed shards automatically: only
        # the *most recently* sealed era may still hold its grace period.
        second = index.tail
        index.get_snapshot(second.last_time)
        second_ids = list(second.index._provisional.delta_ids)
        index.append_batch(list(events)[150:])
        assert len(index.shards) >= 3 and second.sealed
        index.append_batch(
            [new_node(events.end_time + 1 + i, 10_000 + i)
             for i in range(220)])
        assert len(index.shards) >= 4
        for shard in index.shards[:-2]:
            assert shard.index._retired == [], \
                f"era {shard.shard_id} kept retired payloads past its grace"
        stale_cache = [key for key in cache._entries
                       if any(pid in key for pid in second_ids)]
        assert stale_cache == []
        # The federation still answers queries over the sealed spans.
        t = events.end_time
        assert index.get_snapshot(t).element_map() == \
            DeltaGraph.build(events).get_snapshot(t).element_map()

    def test_seal_and_purge_are_federation_wide(self):
        events = simple_trace(140)
        index = ShardedHistoryIndex.build(
            list(events)[:120], EventCountPolicy(60), leaf_eventlist_size=16)
        index.append_batch(list(events)[120:])
        assert index.seal(partial=True) >= 1
        assert index.purge_retired() >= 0
        for shard in index.shards:
            assert shard.index._retired == []


# ---------------------------------------------------------------------------
# statistics aggregation
# ---------------------------------------------------------------------------

class TestStats:
    def test_io_stats_aggregate_across_instrumented_stores(self):
        stores = {}

        def factory(shard_id):
            stores[shard_id] = InstrumentedKVStore(InMemoryKVStore())
            return stores[shard_id]

        events = simple_trace(160)
        index = build_sharded(events, store_factory=factory)
        total = index.io_stats()
        assert total is not None
        assert total.puts == sum(s.stats.puts for s in stores.values())
        index.get_snapshot(events.end_time // 2)
        assert index.io_stats().gets > 0

    def test_io_stats_none_without_instrumentation(self):
        index = build_sharded(simple_trace(60))
        assert index.io_stats() is None

    def test_ingest_stats_sum_over_shards(self):
        events = simple_trace(220)
        index = ShardedHistoryIndex.build(
            list(events)[:100], EventCountPolicy(70), leaf_eventlist_size=16)
        index.append_batch(list(events)[100:])
        aggregated = index.ingest_stats
        assert aggregated.events_appended == 120
        assert aggregated.leaves_sealed == sum(
            s.index.ingest_stats.leaves_sealed for s in index.shards)

    def test_stats_report_shape(self):
        cache = DeltaCache(max_bytes=1 << 18)
        index = build_sharded(
            simple_trace(120), cache=cache,
            store_factory=lambda i: InstrumentedKVStore(InMemoryKVStore()))
        index.get_snapshot(60)
        report = index.stats_report()
        assert report["policy"].startswith("EventCountPolicy")
        assert len(report["per_shard"]) == len(index.shards)
        for row in report["per_shard"]:
            assert {"shard", "span", "sealed", "events", "namespace",
                    "ingest", "io"} <= set(row)
        assert report["totals"]["events"] == 120
        assert report["totals"]["io"]["puts"] > 0
        assert report["cache"]["max_bytes"] == 1 << 18

    def test_cache_namespaces_are_distinct_per_shard(self):
        index = build_sharded(simple_trace(120))
        namespaces = [s.namespace for s in index.shards]
        assert len(set(namespaces)) == len(namespaces)

    def test_index_size_bytes_sums_shards(self):
        # A codec makes the in-memory stores report payload bytes.
        index = build_sharded(simple_trace(120), codec="packed")
        assert index.index_size_bytes() == sum(
            s.index.index_size_bytes() for s in index.shards)
        assert index.index_size_bytes() > 0


# ---------------------------------------------------------------------------
# manager and GraphPool wiring
# ---------------------------------------------------------------------------

class TestManagerWiring:
    def test_history_manager_builds_sharded_index(self):
        events = simple_trace(120)
        manager = HistoryManager.build_index(
            events, shard_policy=EventCountPolicy(50),
            leaf_eventlist_size=16, cache_max_bytes=1 << 18)
        assert isinstance(manager.index, ShardedHistoryIndex)
        assert manager.cache is not None
        snapshot = manager.index.get_snapshot(events.end_time)
        reference = DeltaGraph.build(events).get_snapshot(events.end_time)
        assert snapshot.element_map() == reference.element_map()

    def test_store_with_policy_is_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryManager.build_index(
                simple_trace(20), store=InMemoryKVStore(),
                shard_policy=EventCountPolicy(10))

    def test_shard_knobs_without_policy_are_rejected(self):
        with pytest.raises(ConfigurationError):
            HistoryManager.build_index(
                simple_trace(20),
                shard_store_factory=lambda i: InMemoryKVStore())

    def test_graph_manager_tags_pool_registrations_per_shard(self):
        events = simple_trace(150)
        manager = GraphManager.load(events,
                                    shard_policy=EventCountPolicy(50),
                                    leaf_eventlist_size=16)
        shards = manager.index.shards
        times = [shards[0].last_time, shards[1].t_lo, events.end_time]
        for t in times:
            manager.get_hist_graph(t)
        tagged = {key: [r.graph_id
                        for r in manager.pool.shard_registrations(key)]
                  for key in ("era0", "era1", f"era{len(shards) - 1}")}
        assert tagged["era0"] and tagged["era1"]
        assert tagged[f"era{len(shards) - 1}"]
        # the current graph stays untagged
        untagged = manager.pool.shard_registrations(None)
        assert any(r.graph_id == 0 for r in untagged)

    def test_graph_manager_materializes_shard_qualified_nodes(self):
        events = simple_trace(120)
        manager = GraphManager.load(events,
                                    shard_policy=EventCountPolicy(60),
                                    leaf_eventlist_size=16)
        leaf = manager.index.shards[0].index.skeleton.leaves()[-1]
        view = manager.materialize(f"era0/{leaf.id}")
        registration = manager.pool.allocator.get(view.graph_id)
        assert registration.shard == "era0"
        assert registration.description == f"era0/{leaf.id}"
        assert registration.time == leaf.time

    def test_graph_manager_ingest_rolls_eras_and_updates_pool(self):
        events = simple_trace(200)
        manager = GraphManager.load(list(events)[:80],
                                    shard_policy=EventCountPolicy(60),
                                    leaf_eventlist_size=16)
        before = len(manager.index.shards)
        assert manager.ingest(list(events)[80:]) == 120
        assert len(manager.index.shards) > before
        current = manager.pool.extract_snapshot(0)
        expected = manager.index.current_graph()
        assert set(current.element_map()) == set(expected.element_map())

    def test_aux_snapshot_raises_on_sharded_index(self):
        index = build_sharded(simple_trace(40))
        with pytest.raises(QueryError):
            index.get_aux_snapshot("whatever", 5)

    def test_unsharded_pool_registrations_stay_untagged(self):
        events = simple_trace(60)
        manager = GraphManager.load(events, leaf_eventlist_size=16)
        manager.get_hist_graph(events.end_time)
        assert all(r.shard is None
                   for r in manager.pool.registrations())


# ---------------------------------------------------------------------------
# multipoint fan-out details
# ---------------------------------------------------------------------------

class TestMultipoint:
    def test_result_order_matches_input_order(self):
        events = simple_trace(180)
        index = build_sharded(events, per_era=50)
        times = [events.end_time, events.start_time,
                 index.shards[1].t_lo, events.end_time // 2]
        snapshots = index.get_snapshots(times)
        assert [s.time for s in snapshots] == times

    def test_empty_point_set(self):
        index = build_sharded(simple_trace(40))
        assert index.get_snapshots([]) == []

    def test_duplicate_times_in_one_shard(self):
        events = simple_trace(80)
        index = build_sharded(events, per_era=30)
        t = events.end_time // 2
        snapshots = index.get_snapshots([t, t, t])
        maps = [s.element_map() for s in snapshots]
        assert maps[0] == maps[1] == maps[2]
