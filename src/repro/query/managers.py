"""System components tying the DeltaGraph and the GraphPool together.

The paper's architecture (Figure 2) has three managers below the analyst
API:

* :class:`HistoryManager` — owns the DeltaGraph: construction, query
  planning, reading deltas/eventlists from the store, materialization;
* :class:`GraphManager` — owns the GraphPool: overlays retrieved snapshots,
  assigns bits, tracks dependencies, and cleans up released graphs.  It is
  also the facade analysis code talks to (``get_hist_graph`` & friends);
* :class:`QueryManager` — translates external references (user ids) to
  internal node ids and back using a lookup table.

Both managers accept a shared
:class:`~repro.cache.delta_cache.DeltaCache`, which they install on the
underlying index so every retrieval — singlepoint, multipoint, interval,
materialization — reuses deltas fetched by earlier queries.  The cache
lives on the index, so every manager over one index shares it.

Usage
-----
The typical analyst session is three lines of setup followed by queries::

    from repro.cache import DeltaCache
    from repro.query.managers import GraphManager

    gm = GraphManager.load(events, leaf_eventlist_size=1000, arity=4,
                           cache=DeltaCache(max_bytes=64 << 20))
    g1 = gm.get_hist_graph(t, "+node:all")       # singlepoint, attributes
    series = gm.get_hist_graphs([t1, t2, t3])    # one multipoint plan
    print(gm.cache_stats())                      # hits / misses / evictions
    for g in series:
        gm.release(g)
    gm.cleanup()

``get_hist_graph`` returns :class:`~repro.graphpool.histgraph.HistGraph`
views backed by the pool; release them when the analysis is done.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..cache.delta_cache import CacheStats, DeltaCache
from ..core.deltagraph import DeltaGraph
from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from ..errors import ConfigurationError, QueryError
from ..graphpool.histgraph import HistGraph
from ..graphpool.pool import GraphPool
from ..sharding.federation import ShardedHistoryIndex
from ..sharding.policy import ShardPolicy
from ..storage.kvstore import KVStore
from .attr_options import AttributeFilter, parse_attr_options
from .time_expression import TimeExpression

__all__ = ["HistoryManager", "GraphManager", "QueryManager"]


class HistoryManager:
    """Manages the history index: construction, planning, disk I/O.

    ``index`` is either a single :class:`~repro.core.deltagraph.DeltaGraph`
    or a :class:`~repro.sharding.federation.ShardedHistoryIndex` — both
    speak the same retrieval interface, so everything downstream (including
    :class:`GraphManager`) is shard-agnostic.  ``cache`` installs a shared
    cross-query :class:`~repro.cache.delta_cache.DeltaCache` on the index;
    every manager over that index then shares it, and passing one instance
    to managers over different indexes shares fetched deltas between them.
    """

    def __init__(self, index: DeltaGraph,
                 cache: Optional[DeltaCache] = None) -> None:
        self.index = index
        if cache is not None:
            index.set_cache(cache)

    @classmethod
    def build_index(cls, events: Iterable[Event], store: Optional[KVStore] = None,
                    shard_policy: Optional[ShardPolicy] = None,
                    shard_store_factory=None,
                    shard_build_workers: Optional[int] = None,
                    shard_worker_mode: Optional[str] = None,
                    **construction_parameters) -> "HistoryManager":
        """Construct a history index from an event trace (Section 4.6).

        ``construction_parameters`` are forwarded to
        :meth:`DeltaGraph.build <repro.core.deltagraph.DeltaGraph.build>` and
        include the cache knobs (``cache``, ``cache_max_bytes``).

        ``shard_policy`` switches to a **time-sharded federation**: the
        trace is cut into eras, each era builds its own DeltaGraph (over a
        store from ``shard_store_factory``; in-memory stores by default),
        and the manager serves queries through the cross-shard router —
        transparently to every caller.
        ``shard_worker_mode="subprocess"`` builds and serves each sealed
        era in its own worker process (with automatic in-process fallback
        — see :mod:`repro.sharding.workers`), at most
        ``shard_build_workers`` of them building at once.  See
        :class:`~repro.sharding.federation.ShardedHistoryIndex`.
        """
        if shard_policy is not None:
            if store is not None:
                raise ConfigurationError(
                    "a sharded index owns one store per era shard; pass "
                    "shard_store_factory instead of a single store")
            index = ShardedHistoryIndex.build(
                events, policy=shard_policy,
                store_factory=shard_store_factory,
                build_workers=shard_build_workers,
                worker_mode=shard_worker_mode or "inprocess",
                **construction_parameters)
            return cls(index)
        if (shard_store_factory is not None
                or shard_build_workers is not None
                or shard_worker_mode is not None):
            raise ConfigurationError(
                "shard_store_factory/shard_build_workers/shard_worker_mode "
                "require shard_policy")
        return cls(DeltaGraph.build(events, store=store,
                                    **construction_parameters))

    def close(self) -> None:
        """Release subprocess resources (shard workers), if any.

        A no-op for unsharded or in-process-mode indexes; the index stays
        fully queryable either way.
        """
        close = getattr(self.index, "close", None)
        if close is not None:
            close()

    @property
    def cache(self) -> Optional[DeltaCache]:
        """The index's cross-query delta cache (``None`` when disabled)."""
        return self.index.cache

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss/eviction counters of the shared cache."""
        return self.index.cache_stats()

    def retrieve(self, time: int, attr_filter: AttributeFilter) -> GraphSnapshot:
        """Retrieve a single snapshot honouring the attribute filter."""
        snapshot = self.index.get_snapshot(time,
                                           components=attr_filter.components())
        return attr_filter.apply(snapshot)

    def retrieve_many(self, times: Sequence[int],
                      attr_filter: AttributeFilter) -> List[GraphSnapshot]:
        """Retrieve several snapshots with one multipoint plan."""
        snapshots = self.index.get_snapshots(
            times, components=attr_filter.components())
        return [attr_filter.apply(s) for s in snapshots]

    def retrieve_interval(self, start: int, end: int,
                          attr_filter: AttributeFilter) -> GraphSnapshot:
        """Graph over elements added in ``[start, end)`` plus transient events."""
        snapshot = self.index.get_interval_graph(
            start, end, components=attr_filter.components())
        return attr_filter.apply(snapshot)

    def materialize_node(self, node_id: str) -> GraphSnapshot:
        """Materialize one DeltaGraph node in memory."""
        return self.index.materialize(node_id)

    def scanner(self, components: Optional[Sequence[str]] = None
                ) -> "EvolutionScanner":
        """An :class:`~repro.scan.scanner.EvolutionScanner` over the index.

        The scanner object exposes :meth:`scan
        <repro.scan.scanner.EvolutionScanner.scan>` (step streaming),
        :meth:`run <repro.scan.scanner.EvolutionScanner.run>` (incremental
        operators) and per-scan :class:`~repro.scan.scanner.ScanStats`.
        """
        from ..scan.scanner import EvolutionScanner
        return EvolutionScanner(self.index, components=components)

    def scan(self, times: Optional[Sequence[int]] = None, *,
             start: Optional[int] = None, end: Optional[int] = None,
             stride: Optional[int] = None,
             components: Optional[Sequence[str]] = None):
        """Stream ``(time, snapshot)`` steps over a range of history.

        One seed retrieval at the first timepoint, then delta replay — K
        timepoints cost 1 plan + O(changes in range) instead of K plans
        (DESIGN.md §10).  Yields :class:`~repro.scan.scanner.ScanStep`
        objects whose ``graph`` is the scanner's working snapshot; take
        ``step.snapshot()`` to retain one.  Works identically over a
        sharded index (eras are chained at their boundary snapshots).
        """
        return self.scanner(components).scan(times, start=start, end=end,
                                             stride=stride)

    def append_events(self, events: Iterable[Event]) -> None:
        """Feed live updates into the index's recent eventlist."""
        self.index.append_batch(events)

    def ingest(self, events: Iterable[Event]) -> int:
        """Ingest live events, growing the DeltaGraph in place.

        Delegates to :meth:`DeltaGraph.append_batch
        <repro.core.deltagraph.DeltaGraph.append_batch>`: events become
        immediately queryable through the recent eventlist, full
        ``leaf_eventlist_size`` chunks seal new leaves and propagate recomputed
        deltas up the hierarchy, and exactly the affected cache groups are
        invalidated.  Read-during-ingest contract: appends and query
        planning serialize on the index lock, and payloads a pre-seal plan
        references survive one further seal — single-writer, many-reader.
        Returns the number of events ingested.
        """
        return self.index.append_batch(events)

    def seal(self, partial: bool = True) -> int:
        """Force-seal buffered recent events into leaves (see DeltaGraph.seal)."""
        return self.index.seal(partial=partial)

    # ------------------------------------------------------------------
    # reader leases & telemetry (the service layer's hooks)
    # ------------------------------------------------------------------

    def acquire_read_lease(self):
        """Pin the current reader generation; returns an opaque token.

        While held, the grace-period retirement machinery keeps every
        payload the pinned generation's plans may reference —
        ``purge_retired`` cannot yank them however many seals happen.
        The served front-end (``repro.service``) takes one lease per
        client session; in-process callers rarely need this.
        """
        return self.index.pin_generation()

    def release_read_lease(self, token) -> None:
        """Release a lease taken by :meth:`acquire_read_lease`."""
        self.index.unpin_generation(token)

    def purge_retired(self) -> int:
        """Flush retired payloads not protected by an active lease."""
        return self.index.purge_retired()

    def stats_report(self) -> Dict:
        """Aggregated ``IngestStats``/``IOStats``/cache counter report.

        Shard-agnostic: a sharded index reports per-shard rows plus
        federation totals, an unsharded index one-shard totals of the
        same shape.
        """
        return self.index.stats_report()


class GraphManager:
    """User-facing facade: retrieves snapshots into the GraphPool.

    Mirrors the paper's ``GraphManager``: the analyst asks for historical
    graphs by time (or time expression / interval), receives
    :class:`~repro.graphpool.histgraph.HistGraph` views backed by the pool,
    and releases them when the analysis is done.  ``cache`` installs a
    cross-query delta cache on ``index`` (see :class:`HistoryManager`).
    """

    def __init__(self, index: DeltaGraph,
                 pool: Optional[GraphPool] = None,
                 cache: Optional[DeltaCache] = None) -> None:
        self.pool = pool if pool is not None else GraphPool()
        self.history = HistoryManager(index, cache=cache)
        self.pool.set_current(index.current_graph())
        self._active: Dict[int, HistGraph] = {}

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, events: Iterable[Event], store: Optional[KVStore] = None,
             **construction_parameters) -> "GraphManager":
        """Build the DeltaGraph index and wrap it in a manager.

        ``construction_parameters`` reach
        :meth:`DeltaGraph.build <repro.core.deltagraph.DeltaGraph.build>`,
        including the ``cache``/``cache_max_bytes`` knobs.
        """
        manager = HistoryManager.build_index(events, store=store,
                                             **construction_parameters)
        return cls(manager.index)

    @property
    def index(self) -> DeltaGraph:
        """The underlying DeltaGraph index."""
        return self.history.index

    @property
    def cache(self) -> Optional[DeltaCache]:
        """The shared cross-query delta cache (``None`` when disabled)."""
        return self.history.cache

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss/eviction counters of the shared cache."""
        return self.history.cache_stats()

    def stats_report(self) -> Dict:
        """Aggregated counter report (see :meth:`HistoryManager.stats_report`)."""
        return self.history.stats_report()

    # ------------------------------------------------------------------
    # snapshot queries (paper Section 3.2.1)
    # ------------------------------------------------------------------

    def get_hist_graph(self, time: int, attr_options: str = "") -> HistGraph:
        """``GetHistGraph(t, attr_options)`` — singlepoint retrieval."""
        attr_filter = parse_attr_options(attr_options)
        snapshot = self.history.retrieve(time, attr_filter)
        return self._register(snapshot, time)

    def get_hist_graphs(self, times: Sequence[int],
                        attr_options: str = "") -> List[HistGraph]:
        """``GetHistGraphs(t_list, attr_options)`` — multipoint retrieval."""
        attr_filter = parse_attr_options(attr_options)
        snapshots = self.history.retrieve_many(times, attr_filter)
        return [self._register(snapshot, time)
                for snapshot, time in zip(snapshots, times)]

    def get_hist_graph_expression(self, expression: TimeExpression,
                                  attr_options: str = "") -> HistGraph:
        """``GetHistGraph(TimeExpression, ...)`` — hypothetical graph.

        The constituent snapshots are fetched with one multipoint plan and
        combined element-wise according to the boolean expression; an element
        present in several snapshots takes its value from the latest one.
        """
        attr_filter = parse_attr_options(attr_options)
        snapshots = self.history.retrieve_many(expression.times, attr_filter)
        maps = [s.element_map() for s in snapshots]
        keys = set()
        for elems in maps:
            keys.update(elems)
        combined = GraphSnapshot.empty()
        for key in keys:
            memberships = [key in elems for elems in maps]
            if expression.evaluate(memberships):
                value = None
                for elems, member in zip(maps, memberships):
                    if member:
                        value = elems[key]
                combined.elements[key] = value
        return self._register(combined, expression.times[-1])

    def get_hist_graph_interval(self, start: int, end: int,
                                attr_options: str = "") -> HistGraph:
        """``GetHistGraphInterval(ts, te)`` — elements added in the interval."""
        attr_filter = parse_attr_options(attr_options)
        snapshot = self.history.retrieve_interval(start, end, attr_filter)
        return self._register(snapshot, end)

    # ------------------------------------------------------------------
    # evolution scans (DESIGN.md §10)
    # ------------------------------------------------------------------

    def scanner(self, components: Optional[Sequence[str]] = None):
        """An :class:`~repro.scan.scanner.EvolutionScanner` over the index."""
        return self.history.scanner(components)

    def scan(self, times: Optional[Sequence[int]] = None, *,
             start: Optional[int] = None, end: Optional[int] = None,
             stride: Optional[int] = None,
             components: Optional[Sequence[str]] = None,
             register: bool = False):
        """Stream an evolution scan through the manager facade.

        By default yields :class:`~repro.scan.scanner.ScanStep` objects
        (one seed retrieval + delta replay; see :meth:`HistoryManager.scan`).
        With ``register=True`` every step is registered in the GraphPool and
        yielded as a :class:`~repro.graphpool.histgraph.HistGraph` view
        instead — overlay-aware consumers get pool-resident scan steps
        (consecutive steps overlap heavily, which is exactly the workload
        the pool's bit-pair dependency storage compresses); the caller
        releases the views like any other retrieved graph.
        """
        steps = self.history.scan(times, start=start, end=end,
                                  stride=stride, components=components)
        if not register:
            return steps

        def registered():
            for step in steps:
                yield self._register(step.snapshot(), step.time)
        return registered()

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------

    def _register(self, snapshot: GraphSnapshot, time: int) -> HistGraph:
        registration = self.pool.add_historical(
            snapshot, time=time, shard=self._shard_key(time=time))
        view = HistGraph(self.pool, registration.graph_id, time=time)
        self._active[registration.graph_id] = view
        return view

    def _shard_key(self, time: Optional[int] = None,
                   node_id: Optional[str] = None) -> Optional[str]:
        """The owning era-shard key for pool bookkeeping (None unsharded)."""
        if node_id is not None:
            resolver = getattr(self.index, "shard_key_for_node", None)
            return resolver(node_id) if resolver is not None else None
        resolver = getattr(self.index, "shard_key_for_time", None)
        return resolver(time) if resolver is not None else None

    def materialize(self, node_id: str) -> HistGraph:
        """Materialize an index node and overlay it on the pool.

        Over a sharded index, ``node_id`` is shard-qualified
        (``"era2/interior:h0:l3:0"``) and the pool registration is keyed
        under the owning shard.
        """
        snapshot = self.history.materialize_node(node_id)
        time = self.index.node_time(node_id)
        registration = self.pool.add_materialized(
            snapshot, time=time, description=node_id,
            shard=self._shard_key(node_id=node_id))
        view = HistGraph(self.pool, registration.graph_id, time=time)
        self._active[registration.graph_id] = view
        return view

    def active_graphs(self) -> List[HistGraph]:
        """Views of all graphs retrieved through this manager."""
        return list(self._active.values())

    def release(self, graph: HistGraph) -> None:
        """Mark a retrieved graph as no longer needed (lazy cleanup)."""
        if graph.graph_id not in self._active:
            raise QueryError(f"graph {graph.graph_id} is not active")
        self.pool.release(graph.graph_id)
        del self._active[graph.graph_id]

    def cleanup(self) -> int:
        """Run the lazy cleaner; returns the number of entries removed."""
        return self.pool.cleanup()

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------

    def ingest(self, events: Iterable[Event]) -> int:
        """Ingest live events into the index *and* the pool's current graph.

        The single entry point for live traffic: the DeltaGraph grows in
        place (sealing leaves and recomputing hierarchy deltas as needed,
        see :meth:`HistoryManager.ingest`) and the GraphPool's current-graph
        bits track every event, so analyses over the current graph and
        historical queries stay consistent.  Returns the number ingested.
        """
        batch = list(events)
        before = self.index.ingest_stats.events_appended
        try:
            count = self.history.ingest(batch)
        except BaseException:
            # Keep the pool's current graph in lock-step with whatever
            # prefix the index actually accepted before failing (a rejected
            # out-of-order event, a store error during a seal): the index's
            # per-event counter is the exact prefix length.
            applied = self.index.ingest_stats.events_appended - before
            self.pool.apply_current_events(batch[:applied])
            raise
        self.pool.apply_current_events(batch)
        return count

    def apply_update(self, event: Event) -> None:
        """Apply a live update to both the index and the pool's current graph."""
        self.ingest([event])

    def apply_updates(self, events: Iterable[Event]) -> None:
        """Apply a batch of live updates."""
        self.ingest(events)


class QueryManager:
    """Translates external ids to internal node ids and dispatches queries.

    The mapping is application specific (the paper keeps it outside the core
    system); this implementation maintains a simple bidirectional lookup
    table populated by the caller or lazily from node attributes.
    """

    def __init__(self, graph_manager: GraphManager,
                 external_attr: str = "name") -> None:
        self.graphs = graph_manager
        self.external_attr = external_attr
        self._to_internal: Dict[str, int] = {}
        self._to_external: Dict[int, str] = {}

    def register_mapping(self, external_id: str, node_id: int) -> None:
        """Add one external-id <-> internal-id pair to the lookup table."""
        self._to_internal[external_id] = node_id
        self._to_external[node_id] = external_id

    def resolve(self, external_id: str) -> int:
        """Internal node id for an external reference."""
        try:
            return self._to_internal[external_id]
        except KeyError:
            raise QueryError(f"unknown external id {external_id!r}") from None

    def external_id(self, node_id: int) -> Optional[str]:
        """External reference for an internal node id (``None`` if unmapped)."""
        return self._to_external.get(node_id)

    def populate_from_snapshot(self, snapshot: GraphSnapshot) -> int:
        """Build the lookup table from a snapshot's node attributes."""
        count = 0
        for node_id in snapshot.node_ids():
            value = snapshot.get_node_attr(node_id, self.external_attr)
            if value is not None:
                self.register_mapping(str(value), node_id)
                count += 1
        return count

    def neighbors_of(self, external_id: str, time: int) -> List[str]:
        """External ids of the neighbours of an entity as of ``time``."""
        node_id = self.resolve(external_id)
        graph = self.graphs.get_hist_graph(time)
        return [self._to_external.get(nid, str(nid))
                for nid in sorted(graph.neighbors(node_id))]
