"""The DeltaGraph index (Section 4 of the paper).

A DeltaGraph is a rooted, directed, largely hierarchical graph whose lowest
level corresponds to equi-spaced historical snapshots of the network (never
stored explicitly) and whose interior nodes are synthetic graphs produced by
a *differential function* over their children.  Edges store *deltas*
sufficient to construct the target graph from the source graph; adjacent
leaves are connected by the raw *leaf-eventlists*.  A snapshot query is
answered by finding the cheapest path (or Steiner tree, for multipoint
queries) from the empty super-root to virtual nodes representing the query
times, fetching the deltas on that path from a key-value store, and applying
them.

This module implements:

* bulk bottom-up construction from an event trace (Section 4.6), including
  multiple hierarchies with different differential functions (Figure 3b),
* columnar storage of deltas and eventlists (``struct`` / ``nodeattr`` /
  ``edgeattr`` / ``transient``) with horizontal partitioning (Section 4.2),
* singlepoint and multipoint snapshot retrieval with Dijkstra / Steiner-tree
  planning (Sections 4.3, 4.4),
* memory materialization of arbitrary index nodes (Section 4.5),
* live ingestion — incremental, in-place index maintenance: appended events
  accumulate in a recent eventlist, seal new leaves, and propagate
  recomputed deltas up the hierarchy so the maintained index answers every
  query exactly like a fresh bulk build over the longer trace (Section 6,
  "Updates"; DESIGN.md §8),
* the extensibility hooks for auxiliary indexes (Section 4.7).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cache.delta_cache import CacheStats, DeltaCache
from ..errors import ConfigurationError, DeltaGraphIndexError, QueryError
from ..storage.compression import resolve_codec
from ..storage.kvstore import KVStore, make_key
from ..storage.memory_store import InMemoryKVStore
from .delta import Delta, DeltaStats
from .differential import DifferentialFunction, get_differential_function
from .events import Event, EventList, EventType
from .partition import HashPartitioner
from .skeleton import (
    SUPER_ROOT_ID,
    DeltaGraphSkeleton,
    EdgeKind,
    NodeKind,
    PlanStep,
    SkeletonEdge,
    SkeletonNode,
)
from .snapshot import (
    COMPONENT_EDGEATTR,
    COMPONENT_NODEATTR,
    COMPONENT_STRUCT,
    COMPONENT_TRANSIENT,
    GraphSnapshot,
)

__all__ = ["DeltaGraphConfig", "QueryPlan", "DeltaGraph", "IngestStats",
           "split_events_by_component", "MAIN_COMPONENTS"]

#: Components fetched by default (everything except transient events).
MAIN_COMPONENTS = (COMPONENT_STRUCT, COMPONENT_NODEATTR, COMPONENT_EDGEATTR)

_store_namespace_counter = itertools.count()
_store_namespace_weak: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: Last-resort registry for stores that support neither attribute assignment
#: nor weak references: holds a strong reference so the id can never be
#: reused for a different store (a bounded leak beats silently aliased
#: cache namespaces).
_store_namespace_pinned: Dict[int, Tuple[KVStore, str]] = {}


def _store_namespace(store: KVStore) -> str:
    """A process-unique token identifying a store's *data* for cache keys.

    A :class:`~repro.cache.delta_cache.DeltaCache` may be shared by several
    DeltaGraphs; entries are only interchangeable between indexes reading
    the same store (delta ids like ``evl:0`` repeat across indexes).  The
    token is stamped onto the store instance so every index over that store
    lands in the same namespace; stores that reject attributes fall back to
    registries that stay correct across garbage collection.
    """
    token = getattr(store, "_delta_cache_namespace", None)
    if token is not None:
        return token
    token = f"store{next(_store_namespace_counter)}"
    try:
        store._delta_cache_namespace = token
        return token
    except AttributeError:  # pragma: no cover - slotted store classes
        pass
    try:  # pragma: no cover - slotted store classes
        return _store_namespace_weak.setdefault(store, token)
    except TypeError:  # pragma: no cover - not weak-referenceable either
        pinned = _store_namespace_pinned.setdefault(id(store), (store, token))
        return pinned[1]


def split_events_by_component(events: Iterable[Event]) -> Dict[str, List[Event]]:
    """Split events into columnar components for storage.

    Structural events that carry attribute payloads (a node added with
    initial attributes, a deletion recording the attributes it destroys) are
    rewritten as a bare structural event plus synthetic attribute-update
    events, so that replaying a single component never touches another
    component's element keys.
    """
    out: Dict[str, List[Event]] = {
        COMPONENT_STRUCT: [], COMPONENT_NODEATTR: [],
        COMPONENT_EDGEATTR: [], COMPONENT_TRANSIENT: []}
    for event in events:
        t = event.type
        if t.is_transient:
            out[COMPONENT_TRANSIENT].append(event)
        elif t == EventType.NODE_ATTR:
            out[COMPONENT_NODEATTR].append(event)
        elif t == EventType.EDGE_ATTR:
            out[COMPONENT_EDGEATTR].append(event)
        elif t in (EventType.NODE_ADD, EventType.NODE_DELETE):
            bare = Event(t, event.time, node_id=event.node_id)
            out[COMPONENT_STRUCT].append(bare)
            adding = t == EventType.NODE_ADD
            for attr, value in event.attributes:
                out[COMPONENT_NODEATTR].append(Event(
                    EventType.NODE_ATTR, event.time, node_id=event.node_id,
                    attr=attr,
                    old_value=None if adding else value,
                    new_value=value if adding else None))
        else:  # edge add / delete
            bare = Event(t, event.time, edge_id=event.edge_id, src=event.src,
                         dst=event.dst, directed=event.directed)
            out[COMPONENT_STRUCT].append(bare)
            adding = t == EventType.EDGE_ADD
            for attr, value in event.attributes:
                out[COMPONENT_EDGEATTR].append(Event(
                    EventType.EDGE_ATTR, event.time, edge_id=event.edge_id,
                    attr=attr,
                    old_value=None if adding else value,
                    new_value=value if adding else None))
    return out


def _merge_delta(pieces: List[Delta]) -> Delta:
    """Merge stored delta components into one delta."""
    return Delta.merge_components(pieces) if pieces else Delta.empty()


def _merge_events(pieces: List[List[Event]]) -> List[Event]:
    """Concatenate stored eventlist components, stable-sorted by time."""
    merged = list(itertools.chain.from_iterable(pieces))
    merged.sort(key=lambda e: e.time)
    return merged


@dataclass
class DeltaGraphConfig:
    """Construction parameters of a DeltaGraph (Section 4.6).

    Parameters
    ----------
    leaf_eventlist_size:
        ``L`` — the number of events in each leaf-eventlist (spacing between
        consecutive leaf snapshots).
    arity:
        ``k`` — the number of children per interior node.
    differential_functions:
        One or more differential functions; each one produces an independent
        interior hierarchy over the shared leaves (Figure 3b).  Strings are
        resolved through :func:`~repro.core.differential.get_differential_function`.
    num_partitions:
        Number of horizontal partitions for stored deltas/eventlists.
    cache_max_bytes:
        When positive, the DeltaGraph owns a cross-query
        :class:`~repro.cache.delta_cache.DeltaCache` of this byte budget
        (an explicitly passed cache instance takes precedence).  0 disables
        caching unless a cache is injected.
    codec:
        Serialization for stored delta/eventlist payloads: ``"pickle"``,
        ``"compressed"`` (pickle + zlib, the historical default), or
        ``"packed"`` (struct-packed columnar format, pickle fallback for
        payloads outside its schema; see :mod:`repro.storage.packed`).
        ``None`` leaves the store's own codec untouched.
    """

    leaf_eventlist_size: int = 1000
    arity: int = 2
    differential_functions: Sequence = ("intersection",)
    num_partitions: int = 1
    cache_max_bytes: int = 0
    codec: Optional[str] = None

    def resolved_functions(self) -> List[DifferentialFunction]:
        """The differential functions as instantiated objects."""
        functions: List[DifferentialFunction] = []
        for entry in self.differential_functions:
            if isinstance(entry, DifferentialFunction):
                functions.append(entry)
            elif isinstance(entry, str):
                functions.append(get_differential_function(entry))
            else:
                raise ConfigurationError(
                    f"invalid differential function spec {entry!r}")
        return functions

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on invalid parameters."""
        if self.leaf_eventlist_size < 1:
            raise ConfigurationError("leaf_eventlist_size must be >= 1")
        if self.arity < 2:
            raise ConfigurationError("arity must be >= 2")
        if not self.differential_functions:
            raise ConfigurationError("at least one differential function required")
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if self.cache_max_bytes < 0:
            raise ConfigurationError("cache_max_bytes must be >= 0")
        if self.codec is not None:
            try:
                resolve_codec(self.codec)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None


@dataclass
class IngestStats:
    """Operation counters of the live-ingestion path.

    Deterministic op counts (not wall-clock) so the amortized cost of
    :meth:`DeltaGraph.append` is assertable in tests and benchmarks: a
    healthy append touches O(changed root-to-leaf path) store keys — the
    sealed leaf-eventlist, the interior deltas on the collapse path, and the
    re-finalized provisional top — never O(index).
    """

    events_appended: int = 0
    leaves_sealed: int = 0
    interiors_created: int = 0
    interiors_retired: int = 0
    store_keys_written: int = 0
    store_keys_deleted: int = 0
    refinalizes: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.events_appended = 0
        self.leaves_sealed = 0
        self.interiors_created = 0
        self.interiors_retired = 0
        self.store_keys_written = 0
        self.store_keys_deleted = 0
        self.refinalizes = 0

    def snapshot(self) -> "IngestStats":
        """A copy of the current counters."""
        return IngestStats(self.events_appended, self.leaves_sealed,
                           self.interiors_created, self.interiors_retired,
                           self.store_keys_written, self.store_keys_deleted,
                           self.refinalizes)

    def __sub__(self, other: "IngestStats") -> "IngestStats":
        return IngestStats(
            self.events_appended - other.events_appended,
            self.leaves_sealed - other.leaves_sealed,
            self.interiors_created - other.interiors_created,
            self.interiors_retired - other.interiors_retired,
            self.store_keys_written - other.store_keys_written,
            self.store_keys_deleted - other.store_keys_deleted,
            self.refinalizes - other.refinalizes)


@dataclass
class _ProvisionalRecord:
    """The re-buildable top of the hierarchies for one generation.

    The bulk construction (and every leaf seal) leaves per-hierarchy
    *pending* groups of fewer than ``arity`` open nodes; connecting them to
    the super-root requires collapsing those ragged groups.  The nodes,
    edges, and stored deltas created by that collapse are recorded here so a
    later seal can tear them down and re-finalize — everything else in the
    index is write-once and permanent.
    """

    generation: int
    node_ids: List[str] = field(default_factory=list)
    edges: List[SkeletonEdge] = field(default_factory=list)
    delta_ids: List[str] = field(default_factory=list)


@dataclass
class QueryPlan:
    """A planned snapshot retrieval: which deltas to fetch and how to apply them."""

    steps: List[PlanStep]
    estimated_cost: float
    target_nodes: List[str] = field(default_factory=list)
    components: Optional[Tuple[str, ...]] = None

    def delta_ids(self) -> List[str]:
        """Distinct stored payloads the plan touches (for I/O accounting)."""
        seen, ids = set(), []
        for step in self.steps:
            delta_id = step.edge.delta_id
            if delta_id and delta_id not in seen:
                seen.add(delta_id)
                ids.append(delta_id)
        return ids


class DeltaGraph:
    """Hierarchical delta-based index over the historical trace of a graph.

    Instances are normally created through :meth:`DeltaGraph.build`, which
    bulk-loads the index from a chronological event trace.  The skeleton is
    kept in memory; delta payloads live in the configured key-value store.
    """

    def __init__(self, store: Optional[KVStore] = None,
                 config: Optional[DeltaGraphConfig] = None,
                 cache: Optional[DeltaCache] = None) -> None:
        self.store = store if store is not None else InMemoryKVStore()
        self.config = config if config is not None else DeltaGraphConfig()
        self.config.validate()
        if self.config.codec is not None:
            if not self.store.set_codec(resolve_codec(self.config.codec)):
                raise ConfigurationError(
                    f"store {type(self.store).__name__} cannot switch to "
                    f"codec {self.config.codec!r} (no codec support, or it "
                    "already holds data written with another codec)")
        if cache is not None:
            self.cache: Optional[DeltaCache] = cache
        elif self.config.cache_max_bytes > 0:
            self.cache = DeltaCache(max_bytes=self.config.cache_max_bytes)
        else:
            self.cache = None
        self._cache_namespace = _store_namespace(self.store)
        self.partitioner = HashPartitioner(self.config.num_partitions)
        self.skeleton = DeltaGraphSkeleton()
        self.aux_indexes: Dict[str, object] = {}
        #: Materialized graphs kept in memory, keyed by skeleton node id.
        self._materialized: Dict[str, GraphSnapshot] = {}
        self._graph_id_counter = itertools.count(1)
        #: Current state of the network, maintained for ongoing updates.
        self._current_graph = GraphSnapshot.empty()
        #: Events newer than the last indexed leaf (Section 6, updates).
        self._recent_events = EventList()
        self._last_indexed_time: Optional[int] = None
        self._leaf_counter = itertools.count()
        self._lock = threading.RLock()
        # -- live-ingestion state (Section 6 / incremental maintenance) --
        #: Differential-function instances, resolved once (collapse and
        #: re-finalization must keep using the same instances).
        self._functions = self.config.resolved_functions()
        #: Per hierarchy: level -> open (node_id, snapshot, aux) groups that
        #: have not yet accumulated ``arity`` members.  This is the bulk
        #: construction's bottom-up state, retained so appends grow the
        #: index exactly as a longer bulk build would have.
        self._pending: List[Dict[int, List[Tuple[str, GraphSnapshot,
                                                 Dict[str, dict]]]]] = \
            [dict() for _ in self._functions]
        #: Auxiliary-index states as of the newest sealed leaf.
        self._current_aux: Dict[str, dict] = {}
        #: Graph state at the newest leaf (the replay base for deriving a
        #: sealed chunk's aux events with the same per-chunk boundaries the
        #: bulk build uses).
        self._last_leaf_snapshot: Optional[GraphSnapshot] = None
        #: Storage keys written per *provisional* delta id — the exact key
        #: set a teardown must delete (permanent deltas are never tracked).
        self._delta_keys: Dict[str, List[str]] = {}
        #: How bulk materialization was last requested (``("roots", None)``
        #: or ``("level", depth)``) so a teardown of materialized
        #: provisional nodes can restore the *configured* layout.
        self._materialization_policy: Optional[Tuple[str, Optional[int]]] = None
        #: The current generation's re-buildable hierarchy top.
        self._provisional: Optional[_ProvisionalRecord] = None
        #: Set while re-finalizing: newly created artifacts are recorded.
        self._recording: Optional[_ProvisionalRecord] = None
        #: Retired (generation, delta_id, keys) awaiting purge — kept for
        #: one extra generation so queries planned before a seal still read
        #: their payloads (the read-during-ingest grace period), and for as
        #: long as a reader lease pins a generation at or below theirs
        #: (the service layer's leases, see :meth:`pin_generation`).
        self._retired: List[Tuple[int, str, List[str]]] = []
        self._generation = 0
        #: Active reader-generation pins: generation -> refcount.  While a
        #: pin at generation g is held, no payload retired at generation
        #: >= g is purged.
        self._pins: Dict[int, int] = {}
        self._last_leaf_id: Optional[str] = None
        #: Seals mark the provisional top dirty; the rebuild runs lazily at
        #: the next plan (amortizing one re-finalization per append burst).
        self._top_dirty = False
        #: Deterministic op counters for the ingestion path.
        self.ingest_stats = IngestStats()

    # ==================================================================
    # construction
    # ==================================================================

    @classmethod
    def build(cls, events: Iterable[Event], store: Optional[KVStore] = None,
              leaf_eventlist_size: int = 1000, arity: int = 2,
              differential_functions: Sequence = ("intersection",),
              num_partitions: int = 1,
              aux_indexes: Optional[Sequence] = None,
              initial_graph: Optional[GraphSnapshot] = None,
              cache: Optional[DeltaCache] = None,
              cache_max_bytes: int = 0,
              codec: Optional[str] = None,
              start_time: Optional[int] = None) -> "DeltaGraph":
        """Bulk-construct a DeltaGraph from a chronological event trace.

        Parameters mirror the paper's construction inputs: the eventlist
        ``E``, the leaf-eventlist size ``L``, the arity ``k``, the
        differential function(s) ``f``, and the partitioning of the element
        space.  ``initial_graph`` seeds ``G_0`` (defaults to the empty graph;
        Dataset 2/3-style traces start from a non-empty snapshot).
        ``aux_indexes`` is a sequence of objects implementing the auxiliary
        index protocol of :mod:`repro.auxindex.framework`.  ``cache`` (or the
        ``cache_max_bytes`` knob) enables the cross-query
        :class:`~repro.cache.delta_cache.DeltaCache`.  ``codec`` selects the
        stored-payload serialization (see :class:`DeltaGraphConfig`).
        ``start_time`` pins the timestamp of leaf 0
        (the ``G_0`` snapshot); by default it is inferred as one tick before
        the first event.  An era shard of a
        :class:`~repro.sharding.federation.ShardedHistoryIndex` opens with a
        *non-empty* ``initial_graph`` whose history lives in earlier shards
        — possibly with no events of its own yet — so the inference has
        nothing to go on and the shard passes its era boundary explicitly.
        """
        config = DeltaGraphConfig(
            leaf_eventlist_size=leaf_eventlist_size, arity=arity,
            differential_functions=differential_functions,
            num_partitions=num_partitions,
            cache_max_bytes=cache_max_bytes, codec=codec)
        index = cls(store=store, config=config, cache=cache)
        index._bulk_load(EventList(events), aux_indexes or [],
                         initial_graph=initial_graph, start_time=start_time)
        return index

    def _bulk_load(self, events: EventList, aux_indexes: Sequence,
                   initial_graph: Optional[GraphSnapshot],
                   start_time: Optional[int] = None) -> None:
        leaf_size = self.config.leaf_eventlist_size
        for aux in aux_indexes:
            self.aux_indexes[aux.name] = aux

        current = (initial_graph.copy() if initial_graph is not None
                   else GraphSnapshot.empty())
        self._current_aux = {aux.name: aux.initial_snapshot()
                             for aux in aux_indexes}
        if start_time is None:
            start_time = events[0].time - 1 if len(events) else 0
            if initial_graph is not None and initial_graph.time is not None:
                start_time = min(start_time, initial_graph.time)
        elif len(events) and events[0].time <= start_time:
            raise ConfigurationError(
                f"start_time {start_time} must precede the first event "
                f"(t={events[0].time})")
        current.time = start_time

        # Leaf 0 corresponds to the initial graph G_0.
        previous_leaf_id = self._make_leaf(current, start_time)
        chunks = events.split_into_chunks(leaf_size) if len(events) else []
        for chunk_index, chunk in enumerate(chunks):
            aux_events: Dict[str, list] = {aux.name: [] for aux in aux_indexes}
            for event in chunk:
                for aux in aux_indexes:
                    produced = aux.create_aux_event(
                        event, current, self._current_aux[aux.name])
                    if produced:
                        aux_events[aux.name].extend(produced)
                current.apply_event(event)
            for aux in aux_indexes:
                self._current_aux[aux.name] = aux.create_aux_snapshot(
                    self._current_aux[aux.name], aux_events[aux.name])
            leaf_time = chunk.end_time
            current.time = leaf_time
            leaf_id = self._make_leaf(current, leaf_time)
            eventlist_id = f"evl:{chunk_index}"
            stats = self._store_eventlist(eventlist_id, chunk, aux_events)
            self.skeleton.add_edge(SkeletonEdge(
                source=previous_leaf_id, target=leaf_id,
                kind=EdgeKind.EVENTLIST, delta_id=eventlist_id, stats=stats,
                event_count=len(chunk)))
            previous_leaf_id = leaf_id
            self._last_indexed_time = leaf_time

        self._current_graph = current.copy()
        if self._last_indexed_time is None:
            self._last_indexed_time = start_time
        # Collapse ragged groups and connect hierarchy roots — provisionally,
        # so later appends can tear the top down and grow it in place.
        self._refinalize()
        # Ingest counters measure post-build ingestion only.
        self.ingest_stats.reset()

    def _make_leaf(self, snapshot: GraphSnapshot, time: int) -> str:
        """Register a new leaf and feed it into every hierarchy's pending
        groups, collapsing whenever ``arity`` children have accumulated.

        ``snapshot`` is the graph state at ``time``; the current aux states
        (``self._current_aux``) are frozen alongside it.
        """
        index = next(self._leaf_counter)
        node = SkeletonNode(id=f"leaf:{index}", kind=NodeKind.LEAF,
                            level=1, index=index, time=time)
        self.skeleton.add_node(node)
        frozen = snapshot.copy(time=time)
        frozen_aux = {name: dict(snap)
                      for name, snap in self._current_aux.items()}
        arity = self.config.arity
        for h, function in enumerate(self._functions):
            self._pending[h].setdefault(1, []).append(
                (node.id, frozen, frozen_aux))
            self._maybe_collapse(self._pending[h], 1, function, h, arity,
                                 force=False)
        self._last_leaf_id = node.id
        self._last_leaf_snapshot = frozen
        return node.id

    def _maybe_collapse(self, pending: Dict[int, list], level: int,
                        function: DifferentialFunction, hierarchy: int,
                        arity: int, force: bool) -> None:
        """Create a parent node whenever ``arity`` children have accumulated."""
        group = pending.get(level, [])
        while len(group) >= arity or (force and len(group) > 1):
            children, pending[level] = group[:arity], group[arity:]
            group = pending[level]
            parent_entry = self._create_interior(children, function, hierarchy,
                                                 level + 1)
            pending.setdefault(level + 1, []).append(parent_entry)
            self._maybe_collapse(pending, level + 1, function, hierarchy,
                                 arity, force=False)

    def _create_interior(self, children: List[Tuple[str, GraphSnapshot, Dict[str, dict]]],
                         function: DifferentialFunction, hierarchy: int,
                         level: int) -> Tuple[str, GraphSnapshot, Dict[str, dict]]:
        child_snapshots = [snap for _nid, snap, _aux in children]
        parent_snapshot = function(child_snapshots)
        parent_aux: Dict[str, dict] = {}
        for name, aux in self.aux_indexes.items():
            parent_aux[name] = aux.aux_differential(
                [aux_snaps[name] for _nid, _snap, aux_snaps in children])
        index = self.skeleton.nodes[children[0][0]].index
        # Provisional interiors (created while re-finalizing) carry the
        # generation in their id so the delta keys of consecutive
        # generations never collide — retired payloads of generation g are
        # only purged after generation g+1 is built.
        recording = self._recording
        suffix = f":g{recording.generation}" if recording is not None else ""
        node = SkeletonNode(
            id=f"interior:h{hierarchy}:l{level}:{index}{suffix}",
            kind=NodeKind.INTERIOR, level=level, index=index)
        self.skeleton.add_node(node)
        if recording is not None:
            recording.node_ids.append(node.id)
        self.ingest_stats.interiors_created += 1
        for child_id, child_snapshot, child_aux in children:
            delta = Delta.between(parent_snapshot, child_snapshot)
            aux_deltas = {
                name: self.aux_indexes[name].diff(parent_aux[name], child_aux[name])
                for name in self.aux_indexes}
            delta_id = f"delta:{node.id}:{child_id}"
            stats = self._store_delta(delta_id, delta, aux_deltas)
            edge = self.skeleton.add_edge(SkeletonEdge(
                source=node.id, target=child_id, kind=EdgeKind.DELTA,
                delta_id=delta_id, stats=stats))
            if recording is not None:
                recording.edges.append(edge)
        return node.id, parent_snapshot, parent_aux

    def _finalize_hierarchy(self, pending: Dict[int, list],
                            function: DifferentialFunction, hierarchy: int,
                            arity: int) -> None:
        """Collapse ragged pending groups bottom-up and attach the root.

        Runs on a *staged copy* of the hierarchy's pending state while
        ``self._recording`` is set: the interiors/edges/deltas it creates are
        provisional (torn down and rebuilt at the next leaf seal), and the
        real pending groups stay open so appends keep growing them.
        """
        record = self._recording
        assert record is not None, "finalization must run while recording"
        max_level = max(pending) if pending else 1
        level = 1
        while level <= max_level:
            group = pending.get(level, [])
            higher_pending = any(pending.get(lvl) for lvl in range(level + 1,
                                                               max_level + 1))
            if len(group) > 1 or (len(group) == 1 and higher_pending):
                parent_entry = self._create_interior(group, function,
                                                     hierarchy, level + 1)
                pending[level] = []
                pending.setdefault(level + 1, []).append(parent_entry)
                max_level = max(max_level, level + 1)
            level += 1
        # The single remaining entry (if any) becomes this hierarchy's root.
        remaining = [entry for level in sorted(pending) for entry in pending[level]]
        for root_id, root_snapshot, root_aux in remaining:
            delta = Delta.between(GraphSnapshot.empty(), root_snapshot)
            aux_deltas = {
                name: self.aux_indexes[name].diff(
                    self.aux_indexes[name].initial_snapshot(), root_aux[name])
                for name in self.aux_indexes}
            # The root may be a permanent node (a lone leaf, or an interior
            # a regular collapse produced); the generation stamp keeps the
            # super-root delta id unique across re-finalizations anyway.
            delta_id = (f"delta:super-root:h{hierarchy}"
                        f":g{record.generation}:{root_id}")
            stats = self._store_delta(delta_id, delta, aux_deltas)
            edge = self.skeleton.add_edge(SkeletonEdge(
                source=SUPER_ROOT_ID, target=root_id, kind=EdgeKind.DELTA,
                delta_id=delta_id, stats=stats))
            record.edges.append(edge)

    # ==================================================================
    # storage helpers
    # ==================================================================

    def _store_delta(self, delta_id: str, delta: Delta,
                     aux_deltas: Optional[Dict[str, Delta]] = None) -> DeltaStats:
        """Write a delta's columnar, partitioned components to the store."""
        component_sizes: Dict[str, int] = {}
        items: List[Tuple[str, object]] = []
        parts = self.partitioner.split_delta(delta)
        for partition_id, part in enumerate(parts):
            for component, piece in part.split_components().items():
                if piece:
                    items.append(
                        (make_key(partition_id, delta_id, component), piece))
        for component, size in delta.component_sizes().items():
            component_sizes[component] = size
        for name, aux_delta in (aux_deltas or {}).items():
            component = f"aux:{name}"
            if aux_delta:
                items.append((make_key(0, delta_id, component), aux_delta))
            component_sizes[component] = len(aux_delta)
        self.store.put_many(items)
        self._record_written(delta_id, items)
        if self.cache is not None:
            self.cache.invalidate_group(self._cache_group(delta_id))
        total = sum(component_sizes.values())
        return DeltaStats(component_sizes=component_sizes, total_entries=total)

    def _store_eventlist(self, eventlist_id: str, events: EventList,
                         aux_events: Optional[Dict[str, list]] = None) -> DeltaStats:
        """Write a leaf-eventlist's columnar, partitioned components."""
        component_sizes: Dict[str, int] = {}
        items: List[Tuple[str, object]] = []
        by_component = split_events_by_component(events)
        for component, component_events in by_component.items():
            component_sizes[component] = len(component_events)
            buckets = self.partitioner.split_events(component_events)
            for partition_id, bucket in enumerate(buckets):
                if len(bucket):
                    items.append(
                        (make_key(partition_id, eventlist_id, component),
                         list(bucket)))
        for name, events_for_index in (aux_events or {}).items():
            component = f"aux:{name}"
            if events_for_index:
                items.append((make_key(0, eventlist_id, component),
                              list(events_for_index)))
            component_sizes[component] = len(events_for_index)
        self.store.put_many(items)
        self._record_written(eventlist_id, items)
        if self.cache is not None:
            self.cache.invalidate_group(self._cache_group(eventlist_id))
        total = sum(component_sizes.values())
        return DeltaStats(component_sizes=component_sizes, total_entries=total)

    def _record_written(self, delta_id: str,
                        items: Sequence[Tuple[str, object]]) -> None:
        """Track what a write touched.

        ``store_keys_written`` is the counter the O(changed-path) append
        cost assertions are built on.  Exact key lists are retained only for
        *provisional* deltas (while re-finalization records) — they are what
        a teardown deletes; permanent deltas are write-once and keeping
        their key strings around would grow memory O(index) for nothing.
        """
        self.ingest_stats.store_keys_written += len(items)
        if self._recording is not None:
            self._delta_keys[delta_id] = [key for key, _value in items]
            self._recording.delta_ids.append(delta_id)

    # -- cached reads --------------------------------------------------

    def _cache_key(self, key: str) -> str:
        """Namespace a storage/assembled key for the shared cache."""
        return f"{self._cache_namespace}:{key}"

    def _cache_group(self, delta_id: str) -> str:
        """Namespace an invalidation group for the shared cache."""
        return f"{self._cache_namespace}:{delta_id}"

    def _load_stored(self, key: str, group: str,
                     local: Optional[Dict] = None) -> object:
        """One store value through the caches (missing -> None).

        ``local`` is a per-query scratch mapping (used when no shared cache
        is configured) that the prefetch pass fills with one batched read.
        """
        if local is not None and key in local:
            return local[key]
        cache = self.cache
        if cache is None:
            value = self.store.get_or_default(key)
            if local is not None:
                local[key] = value
            return value
        namespaced = self._cache_key(key)
        found, value = cache.lookup(namespaced)
        if not found:
            value = self.store.get_or_default(key)
            cache.put(namespaced, value, group=self._cache_group(group))
        return value

    @staticmethod
    def _assembled_key(kind: str, delta_id: str, components: Sequence[str],
                       partitions: Sequence[int]) -> str:
        """Cache key of a fully merged delta/eventlist.

        Distinct from raw storage keys, which always start with a partition
        number; one assembled entry covers a whole (components, partitions)
        combination and skips the per-query merge work when warm.
        """
        return (f"assembled-{kind}/{delta_id}/{','.join(components)}"
                f"/{','.join(map(str, partitions))}")

    def _fetch(self, kind: str, merge: Callable[[list], object],
               delta_id: str, components: Sequence[str],
               partitions: Optional[Sequence[int]] = None,
               local: Optional[Dict] = None):
        """Read the requested components of one stored delta or eventlist
        and ``merge`` the present pieces (cache first).

        ``kind`` (``"delta"`` or ``"events"``) names the assembled cache
        entry; ``merge`` is the matching :func:`_merge_delta` or
        :func:`_merge_events`.
        """
        part_list = list(range(self.config.num_partitions)
                         if partitions is None else partitions)
        cache = self.cache
        assembled_key = None
        if cache is not None:
            assembled_key = self._cache_key(self._assembled_key(
                kind, delta_id, components, part_list))
            found, value = cache.lookup(assembled_key)
            if found:
                return value
        pieces: list = []
        raw_keys: List[str] = []
        for partition_id in part_list:
            for component in components:
                key = make_key(partition_id, delta_id, component)
                raw_keys.append(key)
                piece = self._load_stored(key, delta_id, local)
                if piece is not None:
                    pieces.append(piece)
        merged = merge(pieces)
        if cache is not None:
            if cache.put(assembled_key, merged,
                         group=self._cache_group(delta_id)):
                # The assembled entry supersedes the raw pieces it consumed;
                # keeping both would charge the byte budget twice per delta.
                # A different (components, partitions) combination re-fetches
                # its pieces through the batched prefetch path.
                for key in raw_keys:
                    cache.discard(self._cache_key(key))
        return merged

    def _fetch_aux_delta(self, delta_id: str, component: str,
                         local: Optional[Dict] = None):
        """Read one auxiliary component (stored unpartitioned)."""
        return self._load_stored(make_key(0, delta_id, component), delta_id,
                                 local)

    # ==================================================================
    # plan prefetch
    # ==================================================================

    def _prefetch_steps(self, steps: Sequence[PlanStep],
                        components: Sequence[str],
                        partitions: Optional[Sequence[int]] = None,
                        local: Optional[Dict] = None) -> int:
        """Batch-load every unresident storage key a plan may touch.

        Walks the plan up front, collects the (partition, delta_id,
        component) keys that are not already resident, and issues one
        :meth:`~repro.storage.kvstore.KVStore.get_many_or_default` for all of
        them — on a :class:`~repro.storage.disk_store.DiskKVStore` this is a
        single offset-sorted sweep of the data file instead of one random
        read per key.  Fetched values land in the shared cache when one is
        configured, otherwise in ``local``, the per-query scratch mapping
        the executor passes to the fetch helpers — so cacheless deployments
        still get the batched read path.  Returns the number of keys fetched.
        """
        cache = self.cache
        if cache is None and local is None:
            return 0
        part_list = list(range(self.config.num_partitions)
                         if partitions is None else partitions)
        needed: List[Tuple[str, str]] = []  # (storage key, owning group)
        seen: set = set()
        for step in steps:
            edge = step.edge
            delta_id = edge.delta_id
            if edge.kind == EdgeKind.MATERIALIZED or not delta_id:
                continue
            if delta_id in seen:
                continue
            seen.add(delta_id)
            kind = "delta" if edge.kind == EdgeKind.DELTA else "events"
            if cache is not None and cache.contains(self._cache_key(
                    self._assembled_key(kind, delta_id, components,
                                        part_list))):
                continue
            for partition_id in part_list:
                for component in components:
                    key = make_key(partition_id, delta_id, component)
                    if cache is not None:
                        resident = cache.contains(self._cache_key(key))
                    else:
                        resident = key in local
                    if not resident:
                        needed.append((key, delta_id))
        if not needed:
            return 0
        values = self.store.get_many_or_default([key for key, _ in needed])
        for (key, group), value in zip(needed, values):
            if cache is not None:
                cache.put(self._cache_key(key), value,
                          group=self._cache_group(group))
            else:
                local[key] = value
        return len(needed)

    def set_cache(self, cache: Optional[DeltaCache]) -> None:
        """Install (or remove, with ``None``) the shared cross-query cache."""
        self.cache = cache

    def cache_stats(self) -> Optional[CacheStats]:
        """Counters of the attached cache (``None`` when caching is off)."""
        return self.cache.stats() if self.cache is not None else None

    # ==================================================================
    # query planning
    # ==================================================================

    @staticmethod
    def _normalize_components(components: Optional[Sequence[str]]
                              ) -> Tuple[str, ...]:
        if components is None:
            return tuple(MAIN_COMPONENTS)
        return tuple(components)

    def plan_singlepoint(self, time: int,
                         components: Optional[Sequence[str]] = None) -> QueryPlan:
        """Plan a singlepoint snapshot query (Section 4.3)."""
        components = self._normalize_components(components)
        with self._lock:
            self._ensure_top()
            virtual = self.skeleton.add_virtual_node(time)
            try:
                cost, steps = self.skeleton.shortest_path(
                    SUPER_ROOT_ID, virtual.id, components)
            finally:
                self.skeleton.remove_node(virtual.id)
        return QueryPlan(steps=steps, estimated_cost=cost,
                         target_nodes=[virtual.id], components=components)

    def _plan_steiner(self, times: Sequence[int],
                      components: Sequence[str]
                      ) -> Tuple[List[PlanStep], Dict[str, int], List[str]]:
        """Virtual nodes + Steiner tree for a multipoint query, under the lock.

        Shared by :meth:`plan_multipoint` and :meth:`get_snapshots`.  The
        virtual nodes are removed from the skeleton before returning — the
        steps retain the edge objects execution needs, so neither the
        executor nor planning-only callers touch the skeleton afterwards.
        Returns the steps, the virtual-node-id -> query-time mapping, and
        the virtual-node ids in input order.
        """
        with self._lock:
            self._ensure_top()
            virtual_nodes = [self.skeleton.add_virtual_node(t) for t in times]
            node_to_time = {v.id: t for v, t in zip(virtual_nodes, times)}
            try:
                steps = self.skeleton.steiner_tree(list(node_to_time),
                                                   components)
            finally:
                for v in virtual_nodes:
                    self.skeleton.remove_node(v.id)
        return steps, node_to_time, [v.id for v in virtual_nodes]

    def plan_multipoint(self, times: Sequence[int],
                        components: Optional[Sequence[str]] = None
                        ) -> Tuple[QueryPlan, Dict[str, int]]:
        """Plan a multipoint snapshot query (Section 4.4).

        Returns the plan plus a mapping from virtual-node id to the query
        time it represents.
        """
        components = self._normalize_components(components)
        steps, mapping, _ordered = self._plan_steiner(times, components)
        cost = sum(step.edge.weight(components) for step in steps)
        plan = QueryPlan(steps=steps, estimated_cost=cost,
                         target_nodes=list(mapping), components=components)
        return plan, mapping

    # ==================================================================
    # retrieval execution
    # ==================================================================

    def _apply_step(self, snapshot: GraphSnapshot, step: PlanStep,
                    components: Sequence[str],
                    delta_cache: Dict[Tuple[str, bool], object],
                    partitions: Optional[Sequence[int]] = None) -> GraphSnapshot:
        """Apply one plan step to ``snapshot`` (in place) and return it.

        ``step.forward`` false means the edge is traversed against its stored
        direction: deltas are inverted, eventlists replayed backward, and a
        partial (virtual) replay is undone.  ``delta_cache`` is the per-query
        scratch: merged payloads under ``(delta_id, is_delta)`` tuples and —
        when no shared cache is configured — prefetched raw store values
        under their plain string storage keys.
        """
        local = delta_cache if self.cache is None else None
        edge = step.edge
        if edge.kind == EdgeKind.MATERIALIZED:
            base = self._materialized[edge.target]
            return base.copy()
        if edge.kind == EdgeKind.DELTA:
            cache_key = (edge.delta_id, True)
            if cache_key not in delta_cache:
                delta_cache[cache_key] = self._fetch(
                    "delta", _merge_delta, edge.delta_id, components,
                    partitions, local)
            delta: Delta = delta_cache[cache_key]
            return (delta.apply(snapshot) if step.forward
                    else delta.apply_inverse(snapshot))
        if edge.kind == EdgeKind.EVENTLIST:
            cache_key = (edge.delta_id, False)
            if cache_key not in delta_cache:
                delta_cache[cache_key] = self._fetch(
                    "events", _merge_events, edge.delta_id, components,
                    partitions, local)
            events: List[Event] = delta_cache[cache_key]
            snapshot.apply_events(events, forward=step.forward)
            return snapshot
        if edge.kind == EdgeKind.VIRTUAL:
            if edge.delta_id is None:
                # Zero-replay anchor of a skeleton that has no eventlist
                # edges yet (see DeltaGraphSkeleton.add_virtual_node).
                return snapshot
            cache_key = (edge.delta_id, False)
            if cache_key not in delta_cache:
                delta_cache[cache_key] = self._fetch(
                    "events", _merge_events, edge.delta_id, components,
                    partitions, local)
            events = delta_cache[cache_key]
            time = edge.virtual_time
            if edge.direction == "forward":
                selected = [e for e in events if e.time <= time]
                snapshot.apply_events(selected, forward=step.forward)
            else:
                selected = [e for e in events if e.time > time]
                snapshot.apply_events(selected, forward=not step.forward)
            return snapshot
        raise QueryError(f"cannot execute plan step for edge kind {edge.kind}")

    def _execute_singlepoint(self, plan: QueryPlan, time: int,
                             partitions: Optional[Sequence[int]] = None
                             ) -> GraphSnapshot:
        snapshot = GraphSnapshot.empty(time=time)
        delta_cache: Dict = {}
        self._prefetch_steps(plan.steps, plan.components, partitions,
                             local=delta_cache)
        for step in plan.steps:
            snapshot = self._apply_step(snapshot, step, plan.components,
                                        delta_cache, partitions)
        snapshot.time = time
        self._apply_recent_events(snapshot, time, plan.components)
        return snapshot

    def _apply_recent_events(self, snapshot: GraphSnapshot, time: int,
                             components: Sequence[str]) -> None:
        """Apply not-yet-indexed recent events relevant for ``time``.

        The guard must be strict: a recent event may share the timestamp of
        the newest sealed leaf (ties spanning a seal boundary), in which
        case a query exactly at that time still needs it applied.
        """
        if (self._last_indexed_time is not None
                and time < self._last_indexed_time):
            return
        if not len(self._recent_events):
            return
        relevant = [e for e in self._recent_events if e.time <= time]
        by_component = split_events_by_component(relevant)
        for component in components:
            snapshot.apply_events(by_component.get(component, []), forward=True)

    def get_snapshot(self, time: int,
                     components: Optional[Sequence[str]] = None,
                     partitions: Optional[Sequence[int]] = None
                     ) -> GraphSnapshot:
        """Retrieve the graph snapshot as of ``time`` (singlepoint query).

        ``components`` restricts the columnar components fetched (defaults to
        structure plus all attributes); ``partitions`` restricts retrieval to
        a subset of horizontal partitions (used for distributed loading).
        """
        plan = self.plan_singlepoint(time, components)
        return self._execute_singlepoint(plan, time, partitions)

    def get_snapshots(self, times: Sequence[int],
                      components: Optional[Sequence[str]] = None,
                      partitions: Optional[Sequence[int]] = None
                      ) -> List[GraphSnapshot]:
        """Retrieve several snapshots with one multipoint plan (Section 4.4).

        The Steiner-tree plan shares deltas between the requested timepoints,
        avoiding the duplicate reads a sequence of singlepoint queries would
        perform (multi-query optimization, Figure 8c).
        """
        if not times:
            return []
        components = self._normalize_components(components)
        steps, node_to_time, ordered_ids = self._plan_steiner(times,
                                                              components)
        results = self._execute_tree(steps, node_to_time, components,
                                     partitions)
        ordered = [results[node_id] for node_id in ordered_ids]
        for snapshot, time in zip(ordered, times):
            self._apply_recent_events(snapshot, time, components)
        return ordered

    def _execute_tree(self, steps: List[PlanStep],
                      node_to_time: Dict[str, int],
                      components: Sequence[str],
                      partitions: Optional[Sequence[int]]
                      ) -> Dict[str, GraphSnapshot]:
        """Execute a Steiner-tree plan: prefetch every payload into one
        scratch, then traverse the tree from the super-root."""
        delta_cache: Dict = {}
        self._prefetch_steps(steps, components, partitions, local=delta_cache)
        results = self._traverse_tree(steps, node_to_time, components,
                                      delta_cache, partitions)
        missing = set(node_to_time) - set(results)
        if missing:
            raise QueryError(f"multipoint plan did not reach {missing}")
        return results

    def _traverse_tree(self, steps: List[PlanStep],
                       node_to_time: Dict[str, int],
                       components: Sequence[str],
                       delta_cache: Dict,
                       partitions: Optional[Sequence[int]]
                       ) -> Dict[str, GraphSnapshot]:
        """Iterative depth-first execution of a Steiner plan.

        An explicit stack replaces the old recursive DFS, so deep skeletons
        (small leaves, long histories) cannot hit Python's recursion limit.
        Instead of mutating one working snapshot and undoing every step while
        backtracking, the traversal *forks* the working snapshot wherever the
        tree branches: copies are O(overlay) thanks to the copy-on-write
        snapshot representation, each tree edge is applied exactly once, and
        terminal snapshots are O(1) copies of the working state.
        """
        # The Steiner steps may be oriented arbitrarily (they come from
        # shortest paths between different terminal pairs); index each edge
        # under both endpoints so the traversal from the super-root can use
        # it in whichever direction it reaches it first.
        adjacency: Dict[str, List[PlanStep]] = {}
        for step in steps:
            adjacency.setdefault(step.from_node, []).append(step)
            adjacency.setdefault(step.to_node, []).append(
                PlanStep(step.edge, not step.forward))
        results: Dict[str, GraphSnapshot] = {}
        visited = {SUPER_ROOT_ID}
        stack: List[Tuple[str, GraphSnapshot]] = [
            (SUPER_ROOT_ID, GraphSnapshot.empty())]
        while stack:
            node_id, snapshot = stack.pop()
            if node_id in node_to_time:
                results[node_id] = snapshot.copy(time=node_to_time[node_id])
            child_steps = [s for s in adjacency.get(node_id, [])
                           if s.to_node not in visited]
            if not child_steps:
                continue
            visited.update(s.to_node for s in child_steps)
            if len(child_steps) > 1 and snapshot.overlay_size > 512:
                # One flatten beats duplicating a large overlay per branch.
                snapshot.compact()
            last = len(child_steps) - 1
            for index, step in enumerate(child_steps):
                # The last branch consumes the working snapshot; earlier
                # branches fork an O(overlay) copy.  Materialized shortcuts
                # replace the snapshot wholesale, so they skip the fork.
                if step.edge.kind == EdgeKind.MATERIALIZED:
                    branch = snapshot
                else:
                    branch = snapshot if index == last else snapshot.copy()
                branch = self._apply_step(branch, step, components,
                                          delta_cache, partitions)
                stack.append((step.to_node, branch))
        return results

    def get_snapshot_parallel(self, time: int,
                              components: Optional[Sequence[str]] = None,
                              workers: int = 2) -> GraphSnapshot:
        """Retrieve a snapshot fetching each partition on its own thread.

        Mirrors the paper's multi-core experiment (Figure 8b): every
        partition's portion of the snapshot is reconstructed independently
        and the partial snapshots are merged at the end.
        """
        workers = max(1, min(workers, self.config.num_partitions))
        if workers == 1 or self.config.num_partitions == 1:
            return self.get_snapshot(time, components)
        plan = self.plan_singlepoint(time, components)
        partition_ids = list(range(self.config.num_partitions))

        def run(partition_id: int) -> GraphSnapshot:
            return self._execute_singlepoint(plan, time,
                                             partitions=[partition_id])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, partition_ids))
        merged = self.partitioner.merge_snapshots(parts)
        merged.time = time
        return merged

    # ==================================================================
    # streaming replay (evolution scans, repro.scan)
    # ==================================================================

    def eventlist_spans(self) -> List[Tuple[Optional[int], Optional[int], str]]:
        """The sealed leaf-eventlist windows, oldest first.

        Each entry is ``(left_time, right_time, eventlist_id)``: the stored
        chunk holds the events with ``left_time <= e.time <= right_time``
        that turned the left leaf's snapshot into the right leaf's (ties at
        a chunk boundary may appear on either side, but times never decrease
        across consecutive spans).  This is the replay backbone of the
        :class:`~repro.scan.scanner.EvolutionScanner`: a scan walks these
        windows in order instead of planning one retrieval per timepoint.
        """
        with self._lock:
            return [(self.skeleton.nodes[edge.source].time,
                     self.skeleton.nodes[edge.target].time,
                     edge.delta_id)
                    for edge in self.skeleton.eventlist_edges()]

    def fetch_eventlist(self, eventlist_id: str,
                        components: Optional[Sequence[str]] = None,
                        scratch: Optional[Dict] = None) -> List[Event]:
        """Read one stored leaf-eventlist, merged and time-sorted.

        Returns exactly the event sequence retrieval replays for that chunk
        (columnar components merged, stable-sorted by time), going through
        the shared :class:`~repro.cache.delta_cache.DeltaCache` when one is
        configured.  ``scratch`` is a caller-held mapping reused across
        calls so cacheless scans still read every storage key at most once.
        """
        components = self._normalize_components(components)
        return list(self._fetch("events", _merge_events, eventlist_id,
                                components, local=scratch))

    def recent_change_events(self, components: Optional[Sequence[str]] = None
                             ) -> List[Event]:
        """The not-yet-sealed recent events, columnar-split and time-sorted.

        The same component split and ordering
        :meth:`_apply_recent_events` uses during retrieval (a deletion
        carrying attributes becomes a bare structural event plus attribute
        tombstones), returned as a private copy.
        """
        components = self._normalize_components(components)
        with self._lock:
            by_component = split_events_by_component(self._recent_events)
        merged: List[Event] = []
        for component in components:
            merged.extend(by_component.get(component, []))
        merged.sort(key=lambda e: e.time)  # stable: ties keep component order
        return merged

    def replay_state(self, components: Optional[Sequence[str]] = None
                     ) -> Tuple[List[Tuple[Optional[int], Optional[int], str]],
                                List[Event]]:
        """One atomic ``(eventlist_spans, recent_change_events)`` capture.

        A replay cursor must see the sealed spans and the recent tail as of
        the *same* instant: captured separately, a seal racing in between
        would move events out of the recent list after the span list was
        taken, and the scan would silently drop them.  Both views are taken
        under one hold of the index lock (appends/seals serialize on it),
        which is what makes a scan an as-of-start view even when live
        ingestion races it.
        """
        with self._lock:
            return (self.eventlist_spans(),
                    self.recent_change_events(components))

    def get_interval_graph(self, start: int, end: int,
                           components: Optional[Sequence[str]] = None,
                           include_transient: bool = True,
                           into: Optional[GraphSnapshot] = None
                           ) -> GraphSnapshot:
        """Graph over the elements *added* during ``[start, end)``.

        Implements ``GetHistGraphInterval``: it also surfaces transient
        events (which singlepoint retrieval never returns).  ``into``
        accumulates this index's events on top of an earlier snapshot
        instead of starting empty — the cross-shard router chains the era
        shards spanning an interval through it, so attribute tombstones in
        a later era (synthesized when a deletion destroys attributes) erase
        entries accumulated from an earlier one, exactly as one
        chronological replay would.
        """
        components = list(self._normalize_components(components))
        if include_transient and COMPONENT_TRANSIENT not in components:
            components.append(COMPONENT_TRANSIENT)
        snapshot = into if into is not None else GraphSnapshot.empty()
        covering: List[SkeletonEdge] = []
        for edge in self.skeleton.eventlist_edges():
            left_time = self.skeleton.nodes[edge.source].time
            right_time = self.skeleton.nodes[edge.target].time
            if right_time is not None and right_time < start:
                continue
            if left_time is not None and left_time >= end:
                break
            covering.append(edge)
        scratch: Dict = {}
        self._prefetch_steps([PlanStep(edge, True) for edge in covering],
                             components, local=scratch)
        for edge in covering:
            events = self._fetch("events", _merge_events, edge.delta_id,
                                 components, local=scratch)
            for event in events:
                if start <= event.time < end:
                    self._apply_interval_event(snapshot, event)
        # Recent (not yet sealed) events go through the same columnar split
        # the sealed leaf-eventlists were stored with: a deletion carrying
        # attributes becomes a bare structural event plus attribute
        # tombstones, and only the requested components replay — so a
        # maintained index answers interval queries exactly like the bulk
        # build that would have sealed those events.
        recent_by_component = split_events_by_component(
            e for e in self._recent_events if start <= e.time < end)
        recent: List[Event] = []
        for component in components:
            recent.extend(recent_by_component.get(component, []))
        recent.sort(key=lambda e: e.time)
        for event in recent:
            self._apply_interval_event(snapshot, event)
        return snapshot

    @staticmethod
    def _apply_interval_event(snapshot: GraphSnapshot, event: Event) -> None:
        """Apply one event under interval-graph semantics.

        Additions and attribute changes accumulate, transients replay as
        plain additions (the interval graph is the only query that surfaces
        them), and structural deletions are skipped — the interval graph is
        the union of what appeared during the window.
        """
        if event.type.is_transient:
            snapshot.apply_event(Event(
                EventType.NODE_ADD if event.type == EventType.TRANSIENT_NODE
                else EventType.EDGE_ADD,
                event.time, node_id=event.node_id, edge_id=event.edge_id,
                src=event.src, dst=event.dst, directed=event.directed,
                attributes=event.attributes))
        elif event.type in (EventType.NODE_ADD, EventType.EDGE_ADD,
                            EventType.NODE_ATTR, EventType.EDGE_ATTR):
            snapshot.apply_event(event)

    # ==================================================================
    # auxiliary index retrieval (Section 4.7)
    # ==================================================================

    def get_aux_snapshot(self, index_name: str, time: int) -> dict:
        """Reconstruct the auxiliary snapshot of ``index_name`` as of ``time``.

        The auxiliary data is stored as an extra columnar component on every
        delta/eventlist, so the same plan that retrieves the graph retrieves
        the auxiliary state; materialized shortcuts are skipped because only
        graph data is materialized.
        """
        if index_name not in self.aux_indexes:
            raise QueryError(f"unknown auxiliary index {index_name!r}")
        aux = self.aux_indexes[index_name]
        component = f"aux:{index_name}"
        with self._lock:
            self._ensure_top()
            virtual = self.skeleton.add_virtual_node(time)
            try:
                cost, steps = self.skeleton.shortest_path(
                    SUPER_ROOT_ID, virtual.id, [component],
                    allow_materialized=False)
            finally:
                self.skeleton.remove_node(virtual.id)
        # Aux components are stored unpartitioned (partition 0 only).
        scratch: Dict = {}
        self._prefetch_steps(steps, [component], partitions=[0],
                             local=scratch)
        state = aux.initial_snapshot()
        for step in steps:
            edge = step.edge
            if edge.kind == EdgeKind.MATERIALIZED:
                # Materialized graphs do not carry aux data; restart from the
                # target node is impossible, so plans for aux components never
                # include materialized edges (their aux weight is 0 but the
                # data would be wrong).  Skip defensively.
                continue
            if edge.kind == EdgeKind.DELTA:
                aux_delta = self._fetch_aux_delta(edge.delta_id, component,
                                                  scratch)
                if aux_delta is not None:
                    state = aux.apply_delta(state, aux_delta,
                                            forward=step.forward)
            elif edge.kind in (EdgeKind.EVENTLIST, EdgeKind.VIRTUAL):
                aux_events = self._fetch_aux_delta(edge.delta_id, component,
                                                   scratch) or []
                if edge.kind == EdgeKind.VIRTUAL:
                    if edge.direction == "forward":
                        aux_events = [e for e in aux_events if e.time <= time]
                        state = aux.apply_events(state, aux_events, forward=True)
                    else:
                        aux_events = [e for e in aux_events if e.time > time]
                        state = aux.apply_events(state, aux_events, forward=False)
                else:
                    state = aux.apply_events(state, aux_events,
                                             forward=step.forward)
        return state

    # ==================================================================
    # materialization (Section 4.5)
    # ==================================================================

    def materialize(self, node_id: str) -> GraphSnapshot:
        """Materialize a DeltaGraph node's graph in memory.

        The node's graph is reconstructed with a shortest-path plan, stored
        in memory, and a zero-weight edge from the super-root is added to the
        skeleton so that all subsequent queries benefit automatically.
        """
        with self._lock:
            self._ensure_top()
            if node_id in self._materialized:
                return self._materialized[node_id]
            if node_id not in self.skeleton.nodes:
                raise DeltaGraphIndexError(f"unknown node {node_id!r}")
            cost, steps = self.skeleton.shortest_path(SUPER_ROOT_ID, node_id,
                                                      None)
            snapshot = GraphSnapshot.empty()
            delta_cache: Dict = {}
            self._prefetch_steps(steps, list(MAIN_COMPONENTS),
                                 local=delta_cache)
            for step in steps:
                snapshot = self._apply_step(snapshot, step,
                                            list(MAIN_COMPONENTS),
                                            delta_cache)
            node = self.skeleton.nodes[node_id]
            node.materialized_graph = next(self._graph_id_counter)
            self._materialized[node_id] = snapshot
            self.skeleton.add_edge(SkeletonEdge(
                source=SUPER_ROOT_ID, target=node_id,
                kind=EdgeKind.MATERIALIZED, stats=DeltaStats.zero()))
            return snapshot

    def unmaterialize(self, node_id: str) -> None:
        """Drop a previously materialized node and its zero-weight edge."""
        with self._lock:
            if node_id not in self._materialized:
                return
            del self._materialized[node_id]
            self.skeleton.nodes[node_id].materialized_graph = None
            for edge in self.skeleton.out_edges(SUPER_ROOT_ID):
                if edge.kind == EdgeKind.MATERIALIZED and edge.target == node_id:
                    self.skeleton._out[SUPER_ROOT_ID].remove(edge)
                    self.skeleton._in[node_id].remove(edge)

    def materialize_roots(self) -> List[str]:
        """Materialize every hierarchy root (children of the super-root)."""
        self._ensure_top()
        self._materialization_policy = ("roots", None)
        ids = [n.id for n in self.skeleton.roots()]
        for node_id in ids:
            self.materialize(node_id)
        return ids

    def materialize_level_below_root(self, depth: int = 1) -> List[str]:
        """Materialize the nodes ``depth`` levels below each hierarchy root.

        ``depth=1`` materializes the roots' children, ``depth=2`` their
        grandchildren (the configuration used in Figures 7 and 10).
        """
        self._ensure_top()
        self._materialization_policy = ("level", depth)
        frontier = [n.id for n in self.skeleton.roots()]
        for _ in range(depth):
            next_frontier: List[str] = []
            for node_id in frontier:
                for edge in self.skeleton.out_edges(node_id):
                    if edge.kind == EdgeKind.DELTA:
                        next_frontier.append(edge.target)
            frontier = next_frontier or frontier
        for node_id in frontier:
            self.materialize(node_id)
        return frontier

    def materialize_all_leaves(self) -> List[str]:
        """Total materialization: every leaf in memory (Copy+Log-like)."""
        ids = [leaf.id for leaf in self.skeleton.leaves()]
        for node_id in ids:
            self.materialize(node_id)
        return ids

    def materialize_current(self) -> str:
        """Materialize the rightmost leaf (the current graph)."""
        leaves = self.skeleton.leaves()
        if not leaves:
            raise DeltaGraphIndexError("DeltaGraph has no leaves")
        last = leaves[-1].id
        self.materialize(last)
        return last

    def materialized_nodes(self) -> List[str]:
        """Node ids currently materialized in memory."""
        return list(self._materialized)

    def node_time(self, node_id: str) -> Optional[int]:
        """Timestamp of a skeleton node (``None`` for interior nodes).

        Part of the duck-typed index interface shared with
        :class:`~repro.sharding.federation.ShardedHistoryIndex`, which
        resolves shard-qualified node ids the skeleton knows nothing about.
        """
        try:
            return self.skeleton.nodes[node_id].time
        except KeyError:
            raise DeltaGraphIndexError(f"unknown node {node_id!r}") from None

    def materialization_memory_entries(self) -> int:
        """Total number of elements held by materialized graphs.

        Used as the memory-cost axis in the materialization experiments;
        note GraphPool would store these overlaid (union) so this is an upper
        bound on the true incremental memory.
        """
        return sum(len(s) for s in self._materialized.values())

    # ==================================================================
    # live ingestion (Section 6, incremental maintenance)
    # ==================================================================
    #
    # The index is *extensible*: appends grow it in place, producing the
    # same retrieval results a fresh bulk build over the longer trace
    # would.  The machinery splits into three write-once/rebuildable tiers:
    #
    # 1. leaves, leaf-eventlists, and the interiors a full ``arity`` group
    #    produces are permanent and write-once;
    # 2. the ragged top of each hierarchy (the collapse of <arity open
    #    groups plus the super-root attachment) is *provisional*: generation
    #    stamped, recorded in a ``_ProvisionalRecord``, and rebuilt whenever
    #    a seal adds a leaf;
    # 3. retired provisional payloads survive in the store for one extra
    #    generation before being purged, so a query planned before a seal
    #    still reads every delta its plan references.
    #
    # Read-during-ingest contract: planning and appending serialize on the
    # index lock, so no plan ever observes a half-updated skeleton; an
    # already-planned query executes correctly concurrently with one seal
    # (grace period above) — only a *second* seal may purge payloads the
    # old plan still wants.  Single-writer, many-reader is the supported
    # regime, matching the paper's update model.

    def append(self, event: Event) -> None:
        """Ingest one live event (see :meth:`append_batch`)."""
        self.append_batch((event,))

    def append_batch(self, events: Iterable[Event]) -> int:
        """Ingest a batch of live events; returns the number appended.

        Events accumulate in the *recent eventlist* (immediately visible to
        queries at recent timepoints); every ``leaf_eventlist_size``
        accumulated events seal a new leaf: the chunk is written as a leaf-eventlist, the new leaf joins
        the pending groups of every hierarchy (collapsing full groups into
        permanent interiors exactly like bulk construction), and the
        provisional hierarchy top is rebuilt.  Only the changed delta and
        eventlist keys are written; exactly the affected cache groups are
        invalidated (see :attr:`ingest_stats`).
        """
        with self._lock:
            count = 0
            for event in events:
                # The recent-eventlist append validates chronological order;
                # it must run before the current graph mutates so a rejected
                # event cannot leave a phantom element behind.  The per-event
                # counter bump keeps events_appended an exact prefix length
                # even when a mid-batch event is rejected (GraphManager
                # relies on that to keep the pool in sync on failure).
                self._recent_events.append(event)
                self._current_graph.apply_event(event)
                count += 1
                self.ingest_stats.events_appended += 1
            if count:
                self._seal_ready_leaves()
            return count

    def append_events(self, events: Iterable[Event]) -> None:
        """Backwards-compatible alias of :meth:`append_batch`."""
        self.append_batch(events)

    def seal(self, partial: bool = True) -> int:
        """Seal recent events into leaves now; returns leaves sealed.

        Seals every full ``leaf_eventlist_size`` chunk, then — when
        ``partial`` is true and recent events remain — one final partial
        leaf.  This is the entry point of shutdown flushes; unlike automatic seals it re-finalizes eagerly, so every
        delta the index needs is in the store when it returns.
        """
        with self._lock:
            sealed = self._seal_ready_leaves()
            if partial and len(self._recent_events):
                self._seal_leaf(len(self._recent_events))
                sealed += 1
                self._top_dirty = True
            self._ensure_top()
            return sealed

    def _seal_ready_leaves(self) -> int:
        """Seal every full chunk; the top rebuild is deferred to query time.

        Deferral is what makes append bursts cheap: sealing N leaves back to
        back pays for N eventlists and the permanent collapses they trigger,
        but only *one* provisional-top rebuild — at the next plan — instead
        of N.  The index stays correct meanwhile: new leaves are reachable
        through their eventlist edges from the already-attached history.
        """
        threshold = self.config.leaf_eventlist_size
        sealed = 0
        while len(self._recent_events) >= threshold:
            self._seal_leaf(threshold)
            sealed += 1
        if sealed:
            self._top_dirty = True
        return sealed

    def _ensure_top(self) -> None:
        """Rebuild the provisional top if seals left it dirty (lock held
        by callers or reacquired reentrantly)."""
        with self._lock:
            if self._top_dirty:
                self._top_dirty = False
                self._refinalize()

    def _seal_leaf(self, count: int) -> str:
        """Carve ``count`` events off the recent eventlist into a new leaf.

        Writes the leaf-eventlist (and its aux components), chains the leaf
        behind the previous one, advances the aux states, and feeds the leaf
        into the pending hierarchy groups — collapsing full groups into
        permanent interiors.  The caller re-finalizes afterwards.
        """
        chunk = self._recent_events.pop_front(count)
        if self.aux_indexes:
            # Derive the chunk's aux events exactly as the bulk build would:
            # replay the chunk over the previous leaf's graph, each event
            # consulting the aux state *as of that leaf* (never a state from
            # before an earlier seal — that is what keeps ingest-then-query
            # conformant for auxiliary indexes when one batch spans several
            # leaf boundaries).
            aux_events: Dict[str, list] = {name: [] for name in self.aux_indexes}
            base = (self._last_leaf_snapshot.copy()
                    if self._last_leaf_snapshot is not None
                    else GraphSnapshot.empty())
            for event in chunk:
                for name, aux in self.aux_indexes.items():
                    produced = aux.create_aux_event(event, base,
                                                    self._current_aux[name])
                    if produced:
                        aux_events[name].extend(produced)
                base.apply_event(event)
            for name, aux in self.aux_indexes.items():
                self._current_aux[name] = aux.create_aux_snapshot(
                    self._current_aux[name], aux_events[name])
        else:
            aux_events = None
        leaf_time = chunk.end_time
        # The graph at the new leaf time: the current graph minus the
        # still-unindexed recent events (replayed backward).
        snapshot = self._current_graph.copy(time=leaf_time)
        if len(self._recent_events):
            snapshot.apply_events(list(self._recent_events), forward=False)
        previous_leaf_id = self._last_leaf_id
        if previous_leaf_id is None:
            raise DeltaGraphIndexError(
                "cannot append to an index that was not built (no leaves)")
        leaf_id = self._make_leaf(snapshot, leaf_time)
        eventlist_id = f"evl:{self.skeleton.nodes[leaf_id].index - 1}"
        stats = self._store_eventlist(eventlist_id, chunk, aux_events)
        self.skeleton.add_edge(SkeletonEdge(
            source=previous_leaf_id, target=leaf_id, kind=EdgeKind.EVENTLIST,
            delta_id=eventlist_id, stats=stats, event_count=len(chunk)))
        self._last_indexed_time = leaf_time
        self.ingest_stats.leaves_sealed += 1
        return leaf_id

    # -- provisional hierarchy top -------------------------------------

    def _refinalize(self) -> None:
        """Rebuild the provisional top of every hierarchy.

        Tears down the previous generation (skeleton nodes/edges removed
        immediately; stored payloads retired for one generation), then
        re-runs the ragged collapse + root attachment on a staged copy of
        each hierarchy's pending groups.  Cost is O(height x arity), i.e.
        bounded by the changed root-to-leaf path — never O(index).
        """
        rematerialize = self._teardown_provisional()
        record = _ProvisionalRecord(generation=self._generation)
        self._generation += 1
        self._recording = record
        # Recorded *before* building: if a store write fails mid-rebuild,
        # the half-built top is still registered and the next rebuild's
        # teardown removes it instead of orphaning it forever.
        self._provisional = record
        try:
            for h, function in enumerate(self._functions):
                staged = {level: list(entries)
                          for level, entries in self._pending[h].items()
                          if entries}
                self._finalize_hierarchy(staged, function, h,
                                         self.config.arity)
        except BaseException:
            # Schedule a retry at the next plan; the partial top tears down.
            self._top_dirty = True
            raise
        finally:
            self._recording = None
        self.ingest_stats.refinalizes += 1
        if rematerialize and self._materialization_policy is not None:
            # Torn-down provisional nodes were materialized through one of
            # the bulk helpers; restore the *configured* layout (roots or a
            # level below them), not a hard-coded one.  Ad-hoc materialize()
            # calls on provisional nodes lapse — their node is gone and no
            # substitute can honestly stand in for it.
            kind, depth = self._materialization_policy
            if kind == "roots":
                self.materialize_roots()
            else:
                self.materialize_level_below_root(depth)

    def _teardown_provisional(self) -> bool:
        """Remove the current provisional top; returns whether any of its
        nodes had been materialized (so the caller can re-materialize)."""
        self._purge_retired()
        record = self._provisional
        if record is None:
            return False
        rematerialize = False
        for edge in record.edges:
            self.skeleton.remove_edge(edge)
        for node_id in record.node_ids:
            if node_id in self._materialized:
                rematerialize = True
                self.unmaterialize(node_id)
            if node_id in self.skeleton.nodes:
                self.skeleton.remove_node(node_id)
        for delta_id in record.delta_ids:
            keys = self._delta_keys.pop(delta_id, [])
            self._retired.append((record.generation, delta_id, keys))
        self.ingest_stats.interiors_retired += len(record.node_ids)
        self._provisional = None
        return rematerialize

    def _purge_retired(self) -> int:
        """Delete the store keys (and cache groups) retired one seal ago.

        Payloads whose retirement generation is covered by an active reader
        pin (:meth:`pin_generation`) are kept — they stay queued until the
        first purge after the last covering pin is released.
        """
        if not self._retired:
            return 0
        floor = min(self._pins) if self._pins else None
        if floor is None:
            retired, self._retired = self._retired, []
        else:
            retired = [entry for entry in self._retired if entry[0] < floor]
            if not retired:
                return 0
            self._retired = [entry for entry in self._retired
                             if entry[0] >= floor]
        if self.cache is not None:
            self.cache.invalidate_groups(
                self._cache_group(delta_id)
                for _gen, delta_id, _keys in retired)
        removed = 0
        for _gen, _delta_id, keys in retired:
            for key in keys:
                self.store.delete(key)
                removed += 1
        self.ingest_stats.store_keys_deleted += removed
        return removed

    def purge_retired(self) -> int:
        """Flush the read-during-ingest grace period now (e.g. at shutdown).

        Returns the number of store keys deleted.  Callers that know no
        query is in flight can reclaim retired payloads without waiting for
        the next seal.  Payloads under an active reader pin
        (:meth:`pin_generation`) are never flushed.
        """
        with self._lock:
            return self._purge_retired()

    # -- reader-generation pins (service leases) -----------------------

    def pin_generation(self) -> int:
        """Pin the current reader generation; returns the pin token.

        While the pin is held, no payload retired at a generation >= the
        token is deleted by :meth:`purge_retired` or by the automatic
        purge that runs at each provisional-top teardown — so a reader
        that planned queries while the pin was taken can execute them
        safely however many seals happen meanwhile.  The service layer's
        session leases (``repro.service``) hold exactly one pin each;
        release with :meth:`unpin_generation`.
        """
        with self._lock:
            self._ensure_top()
            record = self._provisional
            token = (record.generation if record is not None
                     else self._generation)
            self._pins[token] = self._pins.get(token, 0) + 1
            return token

    def unpin_generation(self, token: int) -> None:
        """Release one pin taken by :meth:`pin_generation`.

        Retired payloads the pin was protecting become purgeable at the
        next purge (they are not deleted eagerly here — an in-flight purge
        pass must never race a release).
        """
        with self._lock:
            count = self._pins.get(token)
            if count is None:
                raise DeltaGraphIndexError(
                    f"generation {token} is not pinned")
            if count == 1:
                del self._pins[token]
            else:
                self._pins[token] = count - 1

    def pinned_generations(self) -> Dict[int, int]:
        """Active generation pins as ``{generation: refcount}``."""
        with self._lock:
            return dict(self._pins)

    def retired_payload_count(self) -> int:
        """Retired (delta_id) payloads still awaiting purge."""
        with self._lock:
            return len(self._retired)

    def current_graph(self) -> GraphSnapshot:
        """The up-to-date current graph maintained for ongoing updates."""
        return self._current_graph.copy()

    # ==================================================================
    # cross-process state transfer (era-shard workers)
    # ==================================================================

    def detach_state(self) -> Dict:
        """The index's picklable in-memory state, without its resources.

        The skeleton, pending construction groups, provisional/retired
        bookkeeping, counters — everything :meth:`from_state` needs to
        reconstruct an equivalent index in another process — minus the
        three members that cannot (or must not) cross a process boundary:
        the store (reopened worker-side via
        :func:`repro.storage.transfer.open_store`), the cache (each process
        owns its own), and the lock.  Aux indexes are process-local too and
        are refused rather than silently dropped.
        """
        with self._lock:
            if self.aux_indexes:
                raise ConfigurationError(
                    "an index with auxiliary indexes cannot be detached "
                    "for worker transfer (aux state is process-local)")
            state = dict(self.__dict__)
        for member in ("store", "cache", "_lock", "_cache_namespace"):
            state.pop(member, None)
        return state

    @classmethod
    def from_state(cls, state: Dict, store: KVStore,
                   cache: Optional[DeltaCache] = None) -> "DeltaGraph":
        """Reconstruct an index from :meth:`detach_state` output.

        ``store`` must hold the same records the detached index's store
        held (the worker hand-off ships them via
        :mod:`repro.storage.transfer`); ``cache`` is this process's own
        :class:`~repro.cache.delta_cache.DeltaCache`, never a shared one.
        """
        index = cls.__new__(cls)
        index.__dict__.update(state)
        index.store = store
        index.cache = cache
        index._lock = threading.RLock()
        index._cache_namespace = _store_namespace(store)
        if index.config.codec is not None:
            if not store.set_codec(resolve_codec(index.config.codec)):
                raise ConfigurationError(
                    f"store {type(store).__name__} cannot adopt the "
                    f"detached index's codec {index.config.codec!r}")
        return index

    # ==================================================================
    # statistics
    # ==================================================================

    def index_entry_count(self, components: Optional[Sequence[str]] = None
                          ) -> float:
        """Total number of delta/eventlist entries stored in the index."""
        self._ensure_top()
        return self.skeleton.total_index_entries(components)

    def index_size_bytes(self) -> int:
        """Bytes of index payload in the store (if the store reports it)."""
        total_bytes = getattr(self.store, "total_bytes", None)
        if callable(total_bytes):
            return total_bytes()
        inner = getattr(self.store, "inner", None)
        if inner is not None and callable(getattr(inner, "total_bytes", None)):
            return inner.total_bytes()
        return 0

    def io_stats(self):
        """I/O counters when the store is instrumented, else ``None``."""
        from ..storage.instrumented import IOStats
        stats = getattr(self.store, "stats", None)
        return stats.snapshot() if isinstance(stats, IOStats) else None

    def stats_report(self) -> Dict:
        """One aggregated counter report (the unsharded analogue of
        :meth:`ShardedHistoryIndex.stats_report
        <repro.sharding.federation.ShardedHistoryIndex.stats_report>`)."""
        with self._lock:
            io = self.io_stats()
            # Total events this index covers: sealed leaf-to-leaf chunks
            # plus the unsealed recent buffer (matches the federation's
            # per-shard ``event_count`` semantics of built + appended).
            indexed = sum(edge.event_count
                          for edge in self.skeleton.eventlist_edges())
            report: Dict = {
                "totals": {
                    "shards": 1,
                    "events": indexed + len(self._recent_events),
                    "ingest": asdict(self.ingest_stats.snapshot()),
                },
                "pins": dict(self._pins),
                "retired_pending": len(self._retired),
            }
            if io is not None:
                report["totals"]["io"] = asdict(io)
            cache = self.cache_stats()
            if cache is not None:
                report["cache"] = asdict(cache)
            return report

    def describe(self) -> str:
        """Human-readable one-line summary of the index."""
        cache = (f"cache={self.cache.max_bytes}B"
                 if self.cache is not None else "cache=off")
        return (f"DeltaGraph(L={self.config.leaf_eventlist_size}, "
                f"k={self.config.arity}, "
                f"functions={[f.name for f in self.config.resolved_functions()]}, "
                f"partitions={self.config.num_partitions}, {cache}, "
                f"{self.skeleton.describe()})")
