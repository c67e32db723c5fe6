"""GraphPool: many graphs overlaid on one in-memory union graph (Section 6).

A typical evolutionary analysis needs 100's of historical snapshots in
memory at once.  Storing them independently would be infeasible, but
consecutive snapshots overlap heavily; the GraphPool therefore maintains a
single union of all *active graphs* — the current graph, retrieved
historical snapshots, and materialized DeltaGraph nodes — and annotates
every ``(element, value)`` entry with a bitmap saying which active graphs
contain it.

Bit semantics (see :mod:`repro.graphpool.bitmap`): the current graph owns
bits 0/1, materialized graphs one bit each, and historical graphs a bit
pair.  For a historical graph registered as *dependent* on a materialized
(or the current) graph, an entry whose pair is ``00`` inherits its
membership from the dependency, and the pair ``1x`` overrides it with
membership ``x`` — so loading a snapshot that differs from a resident graph
in only a few elements touches only those few entries.  (The paper describes
the same optimization with the opposite bit polarity; the inverted default
is what makes "don't touch unchanged elements" possible and preserves the
intent.)

Cleanup is lazy: releasing a graph only frees its bits; a periodic
:meth:`GraphPool.cleanup` pass clears stale bits and drops entries no active
graph references, mirroring the paper's Cleaner thread.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.events import Event, EventType
from ..core.snapshot import ElementKey, GraphSnapshot
from ..errors import GraphPoolError
from .bitmap import (
    CURRENT_BIT,
    RECENTLY_DELETED_BIT,
    BitAllocator,
    GraphKind,
    GraphRegistration,
)

__all__ = ["GraphPool"]

#: An entry of the union structure: an element key plus the concrete value.
EntryKey = Tuple[ElementKey, object]


class GraphPool:
    """In-memory pool of overlaid graphs with per-entry bitmaps."""

    def __init__(self, dependency_threshold: float = 0.25) -> None:
        #: Union of all active graphs: (element key, value) -> bitmap.
        self._entries: Dict[EntryKey, int] = {}
        self._allocator = BitAllocator()
        #: Graphs released but not yet cleaned up (lazy cleanup).
        self._pending_cleanup: List[GraphRegistration] = []
        #: Fraction of differing entries below which a historical graph is
        #: stored as dependent on a resident graph.
        self.dependency_threshold = dependency_threshold
        #: Number of entries touched while overlaying graphs (a measure of
        #: the work the bit-pair optimization saves).
        self.entries_touched = 0

    # ------------------------------------------------------------------
    # registration table
    # ------------------------------------------------------------------

    @property
    def allocator(self) -> BitAllocator:
        """The bit allocator / GraphID-Bit mapping table."""
        return self._allocator

    def registrations(self) -> List[GraphRegistration]:
        """All active graph registrations."""
        return self._allocator.registrations()

    def active_graph_count(self) -> int:
        """Number of active graphs including the current graph."""
        return self._allocator.active_graph_count()

    def shard_registrations(self, shard: Optional[str] = None
                            ) -> List[GraphRegistration]:
        """Active registrations grouped by era-shard key.

        With ``shard`` given, the registrations tagged with that key; with
        ``None``, the untagged ones (graphs from unsharded indexes, plus
        the current graph).  Lets operators of a sharded deployment see
        which eras the resident snapshots come from.
        """
        return [r for r in self._allocator.registrations()
                if r.shard == shard]

    # ------------------------------------------------------------------
    # entry helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _entry_key(key: ElementKey, value: object) -> EntryKey:
        if isinstance(value, list):
            value = tuple(value)
        return (key, value)

    def _set_bit(self, entry: EntryKey, bit: int) -> None:
        self._entries[entry] = self._entries.get(entry, 0) | (1 << bit)
        self.entries_touched += 1

    def _clear_bit(self, entry: EntryKey, bit: int) -> None:
        if entry in self._entries:
            self._entries[entry] &= ~(1 << bit)
            self.entries_touched += 1

    def _test_bit(self, entry: EntryKey, bit: int) -> bool:
        return bool(self._entries.get(entry, 0) & (1 << bit))

    # ------------------------------------------------------------------
    # current graph
    # ------------------------------------------------------------------

    def set_current(self, snapshot: GraphSnapshot) -> None:
        """(Re)load the current graph into the pool."""
        for entry, bitmap in list(self._entries.items()):
            if bitmap & (1 << CURRENT_BIT):
                self._entries[entry] = bitmap & ~(1 << CURRENT_BIT)
        for key, value in snapshot.items():
            self._set_bit(self._entry_key(key, value), CURRENT_BIT)

    def apply_current_events(self, events: Iterable[Event]) -> None:
        """Apply a batch of live updates to the current graph's bits.

        The GraphPool half of the managers' :meth:`ingest
        <repro.query.managers.GraphManager.ingest>` entry point.
        """
        for event in events:
            self.apply_current_event(event)

    def apply_current_event(self, event: Event) -> None:
        """Apply one live update to the current graph's bits.

        Deleted elements keep an entry with the *recently deleted* bit set
        (bit 1) until the event reaches the DeltaGraph index, matching the
        paper's treatment of not-yet-indexed deletions.
        """
        scratch = GraphSnapshot.empty()
        # Determine the element entries the event adds and removes by
        # applying it to an empty scratch snapshot in both directions.
        scratch.apply_event(event, forward=True)
        added = list(scratch.items())
        scratch_back = GraphSnapshot.empty()
        scratch_back.apply_event(event, forward=False)
        removed = list(scratch_back.items())
        if event.type in (EventType.NODE_ATTR, EventType.EDGE_ATTR):
            # For attribute changes, "removed" is the old value entry.
            pass
        for key, value in removed:
            entry = self._entry_key(key, value)
            if self._test_bit(entry, CURRENT_BIT):
                self._clear_bit(entry, CURRENT_BIT)
                self._set_bit(entry, RECENTLY_DELETED_BIT)
        for key, value in added:
            self._set_bit(self._entry_key(key, value), CURRENT_BIT)

    # ------------------------------------------------------------------
    # adding graphs
    # ------------------------------------------------------------------

    def add_materialized(self, snapshot: GraphSnapshot,
                         time: Optional[int] = None,
                         description: str = "",
                         shard: Optional[str] = None) -> GraphRegistration:
        """Overlay a materialized DeltaGraph node onto the pool.

        ``shard`` tags the registration with the era-shard key the node was
        materialized from (sharded indexes only; see
        :meth:`shard_registrations`).
        """
        registration = self._allocator.register_materialized(
            time=time, description=description, shard=shard)
        for key, value in snapshot.items():
            self._set_bit(self._entry_key(key, value), registration.primary_bit)
        return registration

    def add_historical(self, snapshot: GraphSnapshot,
                       time: Optional[int] = None,
                       dependency: Optional[int] = None,
                       auto_dependency: bool = True,
                       description: str = "",
                       shard: Optional[str] = None) -> GraphRegistration:
        """Overlay a retrieved historical snapshot onto the pool.

        When ``dependency`` is given (or ``auto_dependency`` finds a resident
        graph that differs in less than ``dependency_threshold`` of the
        entries), the snapshot is stored as *dependent*: only the differing
        entries are touched.  ``shard`` tags the registration with the
        owning era-shard key (sharded indexes only).
        """
        if dependency is None and auto_dependency:
            dependency = self._choose_dependency(snapshot)
        registration = self._allocator.register_historical(
            time=time, dependency=dependency, description=description,
            shard=shard)
        override_bit = registration.primary_bit
        member_bit = registration.secondary_bit
        if dependency is None:
            for key, value in snapshot.items():
                self._set_bit(self._entry_key(key, value), member_bit)
            return registration
        # Dependent storage: touch only entries whose membership differs.
        base_entries = set(self._graph_entries(dependency))
        snapshot_entries = {self._entry_key(k, v)
                            for k, v in snapshot.items()}
        for entry in snapshot_entries - base_entries:
            self._set_bit(entry, override_bit)
            self._set_bit(entry, member_bit)
        for entry in base_entries - snapshot_entries:
            self._set_bit(entry, override_bit)
            # member bit left clear: overridden to "absent".
        return registration

    def _choose_dependency(self, snapshot: GraphSnapshot) -> Optional[int]:
        """Pick the resident graph with the smallest difference, if small enough."""
        snapshot_entries = {self._entry_key(k, v)
                            for k, v in snapshot.items()}
        best_id, best_diff = None, None
        for registration in self._allocator.registrations():
            if registration.kind == GraphKind.HISTORICAL:
                continue
            base_entries = set(self._graph_entries(registration.graph_id))
            if not base_entries and registration.kind == GraphKind.CURRENT:
                continue
            diff = len(base_entries.symmetric_difference(snapshot_entries))
            if best_diff is None or diff < best_diff:
                best_id, best_diff = registration.graph_id, diff
        if best_id is None or not snapshot_entries:
            return None
        if best_diff <= self.dependency_threshold * len(snapshot_entries):
            return best_id
        return None

    # ------------------------------------------------------------------
    # membership and iteration
    # ------------------------------------------------------------------

    def _graph_entries(self, graph_id: int) -> Iterator[EntryKey]:
        """Iterate over the entries belonging to an active graph."""
        for entry in self._entries:
            if self._entry_in_graph(entry, graph_id):
                yield entry

    def _entry_in_graph(self, entry: EntryKey, graph_id: int) -> bool:
        registration = self._allocator.get(graph_id)
        bitmap = self._entries.get(entry, 0)
        if registration.kind == GraphKind.CURRENT:
            return bool(bitmap & (1 << CURRENT_BIT))
        if registration.kind == GraphKind.MATERIALIZED:
            return bool(bitmap & (1 << registration.primary_bit))
        # Historical: bit pair with dependency semantics.
        override = bool(bitmap & (1 << registration.primary_bit))
        member = bool(bitmap & (1 << registration.secondary_bit))
        if override:
            return member
        if registration.dependency is not None:
            return self._entry_in_graph(entry, registration.dependency)
        return member

    def contains(self, graph_id: int, key: ElementKey, value: object) -> bool:
        """Whether ``(key, value)`` belongs to the given active graph."""
        return self._entry_in_graph(self._entry_key(key, value), graph_id)

    def graph_elements(self, graph_id: int) -> Iterator[Tuple[ElementKey, object]]:
        """Iterate over ``(element key, value)`` pairs of an active graph."""
        for key, value in self._graph_entries(graph_id):
            yield key, value

    def extract_snapshot(self, graph_id: int,
                         time: Optional[int] = None) -> GraphSnapshot:
        """Reconstruct a plain :class:`GraphSnapshot` for an active graph."""
        registration = self._allocator.get(graph_id)
        elements = {key: value for key, value in self.graph_elements(graph_id)}
        return GraphSnapshot(elements,
                             time=time if time is not None else registration.time)

    # ------------------------------------------------------------------
    # cleanup (lazy)
    # ------------------------------------------------------------------

    def release(self, graph_id: int) -> None:
        """Mark a graph as no longer needed; bits are cleared lazily."""
        dependents = self._allocator.dependents_of(graph_id)
        if dependents:
            raise GraphPoolError(
                f"graph {graph_id} still has dependent historical graphs "
                f"({[d.graph_id for d in dependents]}); release them first")
        registration = self._allocator.release(graph_id)
        self._pending_cleanup.append(registration)

    def cleanup(self) -> int:
        """Clear bits of released graphs and drop dead entries.

        Returns the number of union entries removed.  Mirrors the paper's
        lazy Cleaner thread, which runs in the absence of query load or when
        memory runs low.
        """
        if not self._pending_cleanup:
            return 0
        mask = 0
        for registration in self._pending_cleanup:
            for bit in registration.bits:
                mask |= (1 << bit)
        cleaned, self._pending_cleanup = self._pending_cleanup, []
        removed = 0
        for entry in list(self._entries):
            remaining = self._entries[entry] & ~mask
            if remaining:
                self._entries[entry] = remaining
            else:
                del self._entries[entry]
                removed += 1
        # Only now are the bits clear everywhere and safe to hand to the
        # next registration (recycling them at release time let a new graph
        # inherit a released graph's still-set membership bits).
        for registration in cleaned:
            self._allocator.recycle(registration)
        return removed

    def pending_cleanup_count(self) -> int:
        """Number of released graphs awaiting cleanup."""
        return len(self._pending_cleanup)

    # ------------------------------------------------------------------
    # memory statistics
    # ------------------------------------------------------------------

    def union_entry_count(self) -> int:
        """Number of entries in the union structure (memory proxy)."""
        return len(self._entries)

    def estimated_memory_bytes(self) -> int:
        """A rough estimate of the pool's memory footprint in bytes.

        Counts ~100 bytes per union entry (key tuple + value + dict slot)
        plus the width of the bitmaps; intended for relative comparisons in
        the Figure 8(a) experiment, not as an exact RSS measure.
        """
        per_entry = 100 + self._allocator.bitmap_width() // 8
        return len(self._entries) * per_entry

    def disjoint_memory_entries(self) -> int:
        """Total entries if every active graph were stored separately.

        The ratio of this to :meth:`union_entry_count` is the saving the
        GraphPool provides (paper: 50 GB vs 600 MB for 100 snapshots).
        """
        total = 0
        for registration in self._allocator.registrations():
            total += sum(1 for _ in self._graph_entries(registration.graph_id))
        return total

    def __len__(self) -> int:
        return len(self._entries)
