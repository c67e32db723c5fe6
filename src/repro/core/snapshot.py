"""Snapshot representation: the graph as a *collection of objects*.

Both DeltaGraph and GraphPool treat the network as a flat collection of
elements rather than exploiting the graphical structure (Section 1 of the
paper notes this explicitly, which is why the same techniques apply to
temporal relational data).  A snapshot is therefore a mapping from *element
keys* to values:

``('N', node_id) -> 1``
    node existence,
``('E', edge_id) -> (src, dst, directed)``
    edge existence and its endpoints,
``('NA', node_id, attr_name) -> value``
    a node attribute value,
``('EA', edge_id, attr_name) -> value``
    an edge attribute value.

This uniform representation makes deltas, differential functions, and the
columnar split into ``struct`` / ``nodeattr`` / ``edgeattr`` components plain
set/dict algebra.  :class:`GraphSnapshot` wraps the element mapping with
graph-level accessors (neighbours, degrees, attribute lookups) used by
analysis code and examples.

Copy-on-write representation
----------------------------
Internally a snapshot is a *base* dictionary plus a small overlay (an
``added`` dict and a ``removed`` set).  :meth:`GraphSnapshot.copy` is O(1)
in the number of elements: it shares the base with the twin and copies only
the overlay.  Mutations on a snapshot whose base is shared land in the
overlay; once the overlay grows past a fraction of the base the snapshot
*flattens* — merges everything into a fresh private base — so long mutation
bursts run at plain-dict speed.  Readers that need raw-dict performance call
:meth:`GraphSnapshot.element_map` (which flattens in place when an overlay
exists); iterate-once readers use :meth:`GraphSnapshot.items` /
:meth:`GraphSnapshot.keys`, which merge lazily without allocating.

The module-level :data:`COUNTERS` object tracks element-level work
(entries written/removed by event and delta application, entries copied by
flattens) so benchmarks can report deterministic operation counts instead of
wall-clock times.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import EventError
from .events import Event, EventType

__all__ = [
    "NODE",
    "EDGE",
    "NODE_ATTR",
    "EDGE_ATTR",
    "ElementKey",
    "element_component",
    "GraphSnapshot",
    "SnapshotCounters",
    "COUNTERS",
]

# Element-kind tags (first entry of every element key).
NODE = "N"
EDGE = "E"
NODE_ATTR = "NA"
EDGE_ATTR = "EA"

# Columnar component names, matching the paper's delta decomposition.
COMPONENT_STRUCT = "struct"
COMPONENT_NODEATTR = "nodeattr"
COMPONENT_EDGEATTR = "edgeattr"
COMPONENT_TRANSIENT = "transient"

ElementKey = Tuple

_MISSING = object()

#: Overlays smaller than this never trigger a flatten (copying a tiny base
#: to absorb a handful of writes costs more than the double probes).
_FLATTEN_MIN = 64


def element_component(key: ElementKey) -> str:
    """Map an element key to the columnar component it belongs to."""
    kind = key[0]
    if kind in (NODE, EDGE):
        return COMPONENT_STRUCT
    if kind == NODE_ATTR:
        return COMPONENT_NODEATTR
    if kind == EDGE_ATTR:
        return COMPONENT_EDGEATTR
    raise EventError(f"unknown element kind in key {key!r}")


class SnapshotCounters:
    """Process-wide counters of element-level snapshot work.

    Retrieval benchmarks assert on these instead of wall-clock times (the
    quantities are deterministic for a seeded workload, so they cannot flake
    on a loaded CI box).  ``entries_written``/``entries_removed`` count
    individual element mutations from event and delta application;
    ``entries_copied`` counts dict entries duplicated by overlay copies and
    flattens; ``o1_copies`` counts :meth:`GraphSnapshot.copy` calls that
    shared the base instead of duplicating it.

    The increments are plain (non-atomic) ``+=``: counts are exact for
    single-threaded retrieval, which is what the benchmarks measure, and
    only approximate while :meth:`DeltaGraph.get_snapshot_parallel
    <repro.core.deltagraph.DeltaGraph.get_snapshot_parallel>` runs
    partitions on several threads — measure around serial queries.
    """

    __slots__ = ("entries_written", "entries_removed", "entries_copied",
                 "flattens", "o1_copies")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.entries_written = 0
        self.entries_removed = 0
        self.entries_copied = 0
        self.flattens = 0
        self.o1_copies = 0

    def mutations(self) -> int:
        """Element-level mutations (writes + removals) since the last reset."""
        return self.entries_written + self.entries_removed

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict (for benchmark records)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"SnapshotCounters({body})"


#: Global counters; benchmarks reset and read them around a measured block.
COUNTERS = SnapshotCounters()


class GraphSnapshot:
    """A single (possibly synthetic) graph state.

    A snapshot is *valid* when it corresponds to the real network at some
    timepoint; interior DeltaGraph nodes are also represented as
    ``GraphSnapshot`` instances even though they are generally not valid
    graphs as of any time (the paper calls these "graphs" too).

    Parameters
    ----------
    elements:
        Initial element mapping; the snapshot takes ownership of the dict.
    time:
        Timepoint the snapshot corresponds to, or ``None`` for synthetic
        graphs (interior nodes, differential-function outputs).
    """

    __slots__ = ("_base", "_added", "_removed", "_shared", "time",
                 "_adjacency")

    def __init__(self, elements: Optional[Dict[ElementKey, object]] = None,
                 time: Optional[int] = None) -> None:
        self._base: Dict[ElementKey, object] = (
            elements if elements is not None else {})
        self._added: Dict[ElementKey, object] = {}
        self._removed: Set[ElementKey] = set()
        #: Whether ``_base`` may be referenced by another snapshot (set by
        #: :meth:`copy` on both twins); a shared base is never mutated.
        self._shared = False
        self.time = time
        self._adjacency: Optional[Dict[int, Set[int]]] = None

    # ------------------------------------------------------------------
    # copy-on-write machinery
    # ------------------------------------------------------------------

    def _flatten(self) -> None:
        """Merge base + overlay into a fresh private base."""
        merged = dict(self._base)
        for key in self._removed:
            merged.pop(key, None)
        merged.update(self._added)
        COUNTERS.entries_copied += len(merged)
        COUNTERS.flattens += 1
        self._base = merged
        self._added = {}
        self._removed = set()
        self._shared = False

    def _maybe_flatten(self) -> None:
        overlay = len(self._added) + len(self._removed)
        if overlay >= _FLATTEN_MIN and overlay * 2 >= len(self._base):
            self._flatten()

    def compact(self) -> None:
        """Flatten any overlay so subsequent :meth:`copy` calls are O(1).

        The multipoint executor calls this before forking the working
        snapshot at a branch of the Steiner tree: one flatten is cheaper
        than duplicating a large overlay once per subtree.
        """
        if self._added or self._removed or self._shared:
            self._flatten()

    @property
    def overlay_size(self) -> int:
        """Number of overlay entries (0 for a flat, private snapshot)."""
        return len(self._added) + len(self._removed)

    @property
    def elements(self) -> Dict[ElementKey, object]:
        """The element mapping as a private, mutable plain dict.

        Accessing this property flattens the snapshot (copying the base if
        it is shared with a twin), so the returned dict is always safe to
        mutate.  Because the caller may mutate it, any adjacency cache
        (possibly inherited from a copy-on-write twin) is dropped.  Hot
        paths that only read should prefer :meth:`element_map`,
        :meth:`items`, or :meth:`get`, which avoid the defensive copy and
        keep the cache.
        """
        if self._shared or self._added or self._removed:
            self._flatten()
        self._adjacency = None
        return self._base

    @elements.setter
    def elements(self, mapping: Dict[ElementKey, object]) -> None:
        self._base = mapping
        self._added = {}
        self._removed = set()
        self._shared = False
        self._adjacency = None

    def element_map(self) -> Dict[ElementKey, object]:
        """The element mapping as a plain dict — for *read-only* use.

        When the snapshot has no overlay this returns the internal base
        without copying, even if it is shared; callers must not mutate the
        result.  With an overlay present the snapshot flattens in place
        first (one merge, after which reads run at raw dict speed).
        """
        if self._added or self._removed:
            self._flatten()
        return self._base

    def copy(self, time: Optional[int] = None) -> "GraphSnapshot":
        """An O(1) copy-on-write copy (element values are shared).

        The copy shares this snapshot's base dictionary; only the overlay
        (usually empty or small) is duplicated.  Either twin flattens into a
        private base the first time its mutations outgrow the overlay.
        """
        twin = GraphSnapshot.__new__(GraphSnapshot)
        twin._base = self._base
        twin._added = dict(self._added) if self._added else {}
        twin._removed = set(self._removed) if self._removed else set()
        twin._shared = True
        twin.time = self.time if time is None else time
        twin._adjacency = self._adjacency
        self._shared = True
        COUNTERS.o1_copies += 1
        COUNTERS.entries_copied += len(twin._added) + len(twin._removed)
        return twin

    # -- element-level access ------------------------------------------

    def get(self, key: ElementKey, default: object = None) -> object:
        """Value stored for ``key`` or ``default`` when absent."""
        if self._added or self._removed:
            value = self._added.get(key, _MISSING)
            if value is not _MISSING:
                return value
            if key in self._removed:
                return default
        return self._base.get(key, default)

    def _set(self, key: ElementKey, value: object) -> None:
        if self._shared:
            self._added[key] = value
            self._removed.discard(key)
            self._maybe_flatten()
        else:
            self._base[key] = value
        COUNTERS.entries_written += 1

    def _del(self, key: ElementKey) -> None:
        if self._shared:
            self._added.pop(key, None)
            if key in self._base:
                self._removed.add(key)
                self._maybe_flatten()
        else:
            self._base.pop(key, None)
        COUNTERS.entries_removed += 1

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if not self._added and not self._removed:
            return len(self._base)
        base = self._base
        novel = sum(1 for k in self._added if k not in base)
        return len(base) - len(self._removed) + novel

    def __contains__(self, key: ElementKey) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return self.element_map() == other.element_map()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphSnapshot(nodes={self.num_nodes()}, "
                f"edges={self.num_edges()}, time={self.time})")

    # -- read-only dict-style iteration --------------------------------

    def items(self) -> Iterator[Tuple[ElementKey, object]]:
        """Iterate over ``(key, value)`` pairs without flattening."""
        added, removed = self._added, self._removed
        if not added and not removed:
            return iter(self._base.items())

        def merge() -> Iterator[Tuple[ElementKey, object]]:
            base = self._base
            for key, value in base.items():
                if key in removed:
                    continue
                override = added.get(key, _MISSING)
                yield key, (value if override is _MISSING else override)
            for key, value in added.items():
                if key not in base:
                    yield key, value

        return merge()

    def keys(self) -> Iterator[ElementKey]:
        """Iterate over element keys without flattening."""
        added, removed = self._added, self._removed
        if not added and not removed:
            return iter(self._base)

        def merge() -> Iterator[ElementKey]:
            base = self._base
            for key in base:
                if key not in removed:
                    yield key
            for key in added:
                if key not in base:
                    yield key

        return merge()

    def __iter__(self) -> Iterator[ElementKey]:
        return self.keys()

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------

    def node_ids(self) -> List[int]:
        """All node ids present in the snapshot."""
        return [k[1] for k in self.keys() if k[0] == NODE]

    def edge_ids(self) -> List[int]:
        """All edge ids present in the snapshot."""
        return [k[1] for k in self.keys() if k[0] == EDGE]

    def num_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return sum(1 for k in self.keys() if k[0] == NODE)

    def num_edges(self) -> int:
        """Number of edges in the snapshot."""
        return sum(1 for k in self.keys() if k[0] == EDGE)

    def has_node(self, node_id: int) -> bool:
        """Whether the node is present."""
        return (NODE, node_id) in self

    def has_edge(self, edge_id: int) -> bool:
        """Whether the edge is present."""
        return (EDGE, edge_id) in self

    def edge_def(self, edge_id: int) -> Tuple[int, int, bool]:
        """Return ``(src, dst, directed)`` for an edge id."""
        value = self.get((EDGE, edge_id), _MISSING)
        if value is _MISSING:
            raise KeyError((EDGE, edge_id))
        return value

    def edges(self) -> Iterator[Tuple[int, int, int, bool]]:
        """Iterate over ``(edge_id, src, dst, directed)`` tuples."""
        for key, value in self.items():
            if key[0] == EDGE:
                src, dst, directed = value
                yield key[1], src, dst, directed

    def node_attributes(self, node_id: int) -> Dict[str, object]:
        """All attribute values currently set on a node."""
        return {k[2]: v for k, v in self.items()
                if k[0] == NODE_ATTR and k[1] == node_id}

    def edge_attributes(self, edge_id: int) -> Dict[str, object]:
        """All attribute values currently set on an edge."""
        return {k[2]: v for k, v in self.items()
                if k[0] == EDGE_ATTR and k[1] == edge_id}

    def get_node_attr(self, node_id: int, attr: str, default=None):
        """Value of one node attribute, or ``default`` when unset."""
        return self.get((NODE_ATTR, node_id, attr), default)

    def get_edge_attr(self, edge_id: int, attr: str, default=None):
        """Value of one edge attribute, or ``default`` when unset."""
        return self.get((EDGE_ATTR, edge_id, attr), default)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    def _build_adjacency(self) -> Dict[int, Set[int]]:
        adjacency: Dict[int, Set[int]] = {nid: set() for nid in self.node_ids()}
        for _eid, src, dst, directed in self.edges():
            adjacency.setdefault(src, set()).add(dst)
            if not directed:
                adjacency.setdefault(dst, set()).add(src)
        return adjacency

    def adjacency(self) -> Dict[int, Set[int]]:
        """Adjacency map ``node -> set(successor nodes)`` (cached).

        For undirected edges both directions are included.  The cache is
        invalidated whenever the snapshot is mutated through
        :meth:`apply_event` / :meth:`add_elements` / :meth:`remove_elements`.
        A copy-on-write twin shares the cache until either side mutates.
        """
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        return self._adjacency

    def neighbors(self, node_id: int) -> Set[int]:
        """Successor set of a node (empty set for isolated/unknown nodes)."""
        return self.adjacency().get(node_id, set())

    def degree(self, node_id: int) -> int:
        """Out-degree (== degree for undirected graphs) of a node."""
        return len(self.neighbors(node_id))

    def _invalidate_cache(self) -> None:
        self._adjacency = None

    # ------------------------------------------------------------------
    # mutation through events
    # ------------------------------------------------------------------

    def apply_event(self, event: Event, forward: bool = True) -> None:
        """Apply a single event in the given direction.

        Transient events never modify the persistent element set; they are
        only surfaced by interval queries (``GetHistGraphInterval``).
        """
        if event.type.is_transient:
            return
        self._invalidate_cache()
        if forward:
            self._apply_forward(event)
        else:
            self._apply_backward(event)

    def _apply_forward(self, event: Event) -> None:
        t = event.type
        if t == EventType.NODE_ADD:
            self._set((NODE, event.node_id), 1)
            for attr, value in event.attributes:
                self._set((NODE_ATTR, event.node_id, attr), value)
        elif t == EventType.NODE_DELETE:
            self._del((NODE, event.node_id))
            for attr, _value in event.attributes:
                self._del((NODE_ATTR, event.node_id, attr))
        elif t == EventType.EDGE_ADD:
            self._set((EDGE, event.edge_id), (event.src, event.dst,
                                              event.directed))
            for attr, value in event.attributes:
                self._set((EDGE_ATTR, event.edge_id, attr), value)
        elif t == EventType.EDGE_DELETE:
            self._del((EDGE, event.edge_id))
            for attr, _value in event.attributes:
                self._del((EDGE_ATTR, event.edge_id, attr))
        elif t == EventType.NODE_ATTR:
            key = (NODE_ATTR, event.node_id, event.attr)
            if event.new_value is None:
                self._del(key)
            else:
                self._set(key, event.new_value)
        elif t == EventType.EDGE_ATTR:
            key = (EDGE_ATTR, event.edge_id, event.attr)
            if event.new_value is None:
                self._del(key)
            else:
                self._set(key, event.new_value)
        else:  # pragma: no cover - defensive
            raise EventError(f"cannot apply event type {t}")

    def _apply_backward(self, event: Event) -> None:
        t = event.type
        if t == EventType.NODE_ADD:
            self._del((NODE, event.node_id))
            for attr, _value in event.attributes:
                self._del((NODE_ATTR, event.node_id, attr))
        elif t == EventType.NODE_DELETE:
            self._set((NODE, event.node_id), 1)
            for attr, value in event.attributes:
                self._set((NODE_ATTR, event.node_id, attr), value)
        elif t == EventType.EDGE_ADD:
            self._del((EDGE, event.edge_id))
            for attr, _value in event.attributes:
                self._del((EDGE_ATTR, event.edge_id, attr))
        elif t == EventType.EDGE_DELETE:
            self._set((EDGE, event.edge_id), (event.src, event.dst,
                                              event.directed))
            for attr, value in event.attributes:
                self._set((EDGE_ATTR, event.edge_id, attr), value)
        elif t == EventType.NODE_ATTR:
            key = (NODE_ATTR, event.node_id, event.attr)
            if event.old_value is None:
                self._del(key)
            else:
                self._set(key, event.old_value)
        elif t == EventType.EDGE_ATTR:
            key = (EDGE_ATTR, event.edge_id, event.attr)
            if event.old_value is None:
                self._del(key)
            else:
                self._set(key, event.old_value)
        else:  # pragma: no cover - defensive
            raise EventError(f"cannot apply event type {t}")

    def apply_events(self, events: Iterable[Event], forward: bool = True) -> None:
        """Apply a sequence of events.

        Forward application processes events in the given order; backward
        application processes them in reverse order (undoing the most recent
        change first), matching ``G_{k-1} = G_k - E``.
        """
        events = list(events)
        if not forward:
            events = list(reversed(events))
        for event in events:
            self.apply_event(event, forward=forward)

    # ------------------------------------------------------------------
    # raw element mutation (used when applying deltas)
    # ------------------------------------------------------------------

    def add_elements(self, items: Iterable[Tuple[ElementKey, object]]) -> None:
        """Insert (or overwrite) raw element entries."""
        self._invalidate_cache()
        count = 0
        if self._shared:
            added, removed = self._added, self._removed
            for key, value in items:
                added[key] = value
                count += 1
            if removed:
                removed.difference_update(added)
            self._maybe_flatten()
        else:
            base = self._base
            for key, value in items:
                base[key] = value
                count += 1
        COUNTERS.entries_written += count

    def remove_elements(self, keys: Iterable[ElementKey]) -> None:
        """Remove raw element entries (missing keys are ignored)."""
        self._invalidate_cache()
        count = 0
        if self._shared:
            base, added, removed = self._base, self._added, self._removed
            for key in keys:
                added.pop(key, None)
                if key in base:
                    removed.add(key)
                count += 1
            self._maybe_flatten()
        else:
            base = self._base
            for key in keys:
                base.pop(key, None)
                count += 1
        COUNTERS.entries_removed += count

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def component_sizes(self) -> Dict[str, int]:
        """Number of elements per columnar component."""
        sizes = {COMPONENT_STRUCT: 0, COMPONENT_NODEATTR: 0,
                 COMPONENT_EDGEATTR: 0}
        for key in self.keys():
            sizes[element_component(key)] += 1
        return sizes

    def filtered(self, components: Iterable[str]) -> "GraphSnapshot":
        """A copy containing only the requested columnar components."""
        wanted = set(components)
        return GraphSnapshot(
            {k: v for k, v in self.items()
             if element_component(k) in wanted},
            time=self.time)

    @classmethod
    def from_events(cls, events: Iterable[Event],
                    time: Optional[int] = None) -> "GraphSnapshot":
        """Build a snapshot by replaying events onto an empty graph."""
        snapshot = cls(time=time)
        snapshot.apply_events(events, forward=True)
        return snapshot

    @classmethod
    def empty(cls, time: Optional[int] = None) -> "GraphSnapshot":
        """The empty graph (used for the DeltaGraph super-root)."""
        return cls({}, time=time)
