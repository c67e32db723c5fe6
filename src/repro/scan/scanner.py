"""Streaming evolution scans: one seed retrieval plus delta replay.

The paper's headline workload (Figure 1, §1) is *evolutionary analysis*:
compute a measure over a long chronological series of snapshots.  Answering
that with K independent snapshot retrievals pays K root-to-leaf plans — the
very cost model the DeltaGraph exists to beat.  The
:class:`EvolutionScanner` instead materializes **one** seed snapshot through
the existing planner and then advances a copy-on-write working snapshot by
replaying the sealed leaf-eventlists (plus the unsealed recent tail) in time
order, yielding a :class:`ScanStep` per requested timepoint:

* store reads: one seed retrieval + each overlapping eventlist payload read
  at most once — ``O(1 retrieval + total changes)`` instead of
  ``O(K retrievals)``;
* element mutations: every event is applied exactly once to one working
  snapshot (:data:`repro.core.snapshot.COUNTERS` proves it in
  ``benchmarks/test_scan_throughput.py``);
* over a :class:`~repro.sharding.federation.ShardedHistoryIndex`, the scan
  chains eras: the working snapshot at an era boundary *is* the next era's
  initial graph, so crossing a shard needs zero extra retrievals and no
  foreign-shard reads.

Correctness contract: the snapshot yielded at time ``t`` is
element-for-element identical to ``index.get_snapshot(t)`` (the replay uses
the same merged, columnar-split event sequences retrieval replays); the
differential suite in ``tests/test_evolution_scan.py`` checks this across
codecs, sharded/unsharded layouts, and cached/uncached configurations.

The scan is an *as-of-start* view: the sealed spans and the recent tail are
captured when the scan begins, so events ingested while a scan is running
are not reflected in later steps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from ..errors import QueryError

__all__ = ["ScanStep", "ScanStats", "EvolutionScanner"]


@dataclass
class ScanStep:
    """One emitted point of an evolution scan.

    ``graph`` is the scanner's *working* snapshot — treat it as read-only
    (the scanner keeps mutating it to produce later steps).  Callers that
    need to retain a step beyond the next iteration take :meth:`snapshot`,
    an O(1) copy-on-write fork.  ``changes`` is the exact event batch
    replayed since the previous step (empty for the seed step).
    """

    time: int
    graph: GraphSnapshot
    changes: List[Event] = field(default_factory=list)

    def snapshot(self) -> GraphSnapshot:
        """An O(1) copy-on-write copy of the working snapshot, safe to keep."""
        return self.graph.copy(time=self.time)


@dataclass
class ScanStats:
    """Deterministic operation counters of one scan (reset per ``scan()``).

    ``eventlists_fetched`` counts stored leaf-eventlist payloads read during
    replay (each at most once); ``events_applied`` the events replayed onto
    the working snapshot; ``steps_emitted`` the yielded points;
    ``shards_entered`` the era shards the scan touched (always 1 unsharded).
    """

    eventlists_fetched: int = 0
    events_applied: int = 0
    steps_emitted: int = 0
    shards_entered: int = 0


class _IndexReplayCursor:
    """Monotonic reader of one DeltaGraph's changes after a start time.

    Walks the index's sealed eventlist spans in order, fetching each stored
    payload at most once (spans entirely at or before the start time are
    skipped without any store read), then drains the captured recent tail.
    ``take(t)`` returns every not-yet-returned event with ``time <= t``, in
    the exact order retrieval would replay them.
    """

    def __init__(self, index, components: Sequence[str],
                 start_time: int, stats: ScanStats) -> None:
        self._index = index
        self._components = list(components)
        self._stats = stats
        # One atomic capture of sealed spans + recent tail: a seal racing
        # two separate captures would move events from the recent list into
        # a span the cursor never saw, silently dropping them.
        self._spans, recent = index.replay_state(self._components)
        self._scratch: Dict = {}
        self._position = 0
        self._buffer: List[Event] = []
        self._buffer_pos = 0
        self._start = start_time
        # Spans whose newest event is at or before the seed time hold
        # nothing to replay: skip them without touching the store.
        while (self._position < len(self._spans)
               and self._spans[self._position][1] is not None
               and self._spans[self._position][1] <= start_time):
            self._position += 1
        self._recent = recent
        self._recent_pos = bisect.bisect_right(
            [event.time for event in recent], start_time)
        self._stats.shards_entered += 1

    def take(self, t_to: int) -> List[Event]:
        """All not-yet-returned events with ``time <= t_to``, in order."""
        out: List[Event] = []
        while True:
            buffer, pos = self._buffer, self._buffer_pos
            while pos < len(buffer) and buffer[pos].time <= t_to:
                out.append(buffer[pos])
                pos += 1
            self._buffer_pos = pos
            if pos < len(buffer):
                break  # t_to falls inside this span; resume here next call
            if self._position >= len(self._spans):
                break
            left, _right, eventlist_id = self._spans[self._position]
            if left is not None and left > t_to:
                break  # span strictly ahead of the window
            events = self._index.fetch_eventlist(
                eventlist_id, self._components, scratch=self._scratch)
            self._stats.eventlists_fetched += 1
            self._position += 1
            # Drop the prefix the seed snapshot already contains (ties at
            # the seed time are part of the seed, exactly as retrieval's
            # ``e.time <= t`` virtual-edge filter treats them).
            start = self._start
            self._buffer = [e for e in events if e.time > start]
            self._buffer_pos = 0
        recent, pos = self._recent, self._recent_pos
        while pos < len(recent) and recent[pos].time <= t_to:
            out.append(recent[pos])
            pos += 1
        self._recent_pos = pos
        return out


class _ShardedReplayCursor:
    """Chains per-era cursors of a sharded index in chronological order.

    Each overlapping era shard gets its own :class:`_IndexReplayCursor`,
    created **eagerly** so every shard's spans and recent tail are captured
    at scan start (cursor creation does no store reads, so lazy creation
    would buy nothing — and would let the live tail capture events ingested
    mid-scan, breaking the as-of-start contract).  Eras are disjoint,
    consecutive time spans, so concatenating their windows preserves global
    time order.  Shards entirely outside the scan range never get a cursor
    — zero foreign-shard reads.
    """

    def __init__(self, federation, components: Sequence[str],
                 start_time: int, end_time: int, stats: ScanStats) -> None:
        self._shards = federation.scan_shards(start_time, end_time)
        # A shard replays from its worker process or its in-process index
        # (EraShard's read path decides); either way the replay contract
        # (replay_state + fetch_eventlist) and the zero-foreign-shard-reads
        # property are identical.
        self._cursors = [
            _IndexReplayCursor(shard.replay_source(), components, start_time,
                               stats)
            for shard in self._shards]

    def take(self, t_to: int) -> List[Event]:
        out: List[Event] = []
        for shard, cursor in zip(self._shards, self._cursors):
            if shard.t_lo > t_to:
                break  # later eras hold only events past the window
            out.extend(cursor.take(t_to))
        return out


class EvolutionScanner:
    """Streams ``(time, snapshot)`` steps over a range of history.

    ``index`` is anything speaking the retrieval interface — a
    :class:`~repro.core.deltagraph.DeltaGraph` or a
    :class:`~repro.sharding.federation.ShardedHistoryIndex` (managers expose
    the same thing through :meth:`HistoryManager.scan
    <repro.query.managers.HistoryManager.scan>` /
    :meth:`GraphManager.scan <repro.query.managers.GraphManager.scan>`).
    ``components`` restricts the columnar components retrieved and replayed
    (default: structure plus node/edge attributes, like retrieval).

    Timepoints come either as an explicit non-decreasing ``times`` sequence
    or as a ``start``/``end``/``stride`` arithmetic range (both ends
    inclusive; the final stride is clipped to ``end``).
    """

    def __init__(self, index, components: Optional[Sequence[str]] = None
                 ) -> None:
        self.index = index
        self.components = components
        self.stats = ScanStats()

    # ------------------------------------------------------------------
    # timepoint resolution
    # ------------------------------------------------------------------

    @staticmethod
    def resolve_times(times: Optional[Sequence[int]] = None,
                      start: Optional[int] = None, end: Optional[int] = None,
                      stride: Optional[int] = None) -> List[int]:
        """Normalize a scan's timepoints (explicit list xor start/end/stride)."""
        if times is not None:
            if start is not None or end is not None or stride is not None:
                raise QueryError(
                    "pass either an explicit times sequence or "
                    "start/end/stride, not both")
            resolved = [int(t) for t in times]
            if not resolved:
                raise QueryError("a scan needs at least one timepoint")
            if any(a > b for a, b in zip(resolved, resolved[1:])):
                raise QueryError("scan times must be non-decreasing")
            return resolved
        if start is None or end is None or stride is None:
            raise QueryError(
                "a scan needs either times=[...] or all of start/end/stride")
        if stride <= 0:
            raise QueryError("stride must be positive")
        if start > end:
            raise QueryError(f"scan range is empty (start {start} > end {end})")
        resolved = list(range(int(start), int(end) + 1, int(stride)))
        if resolved[-1] != end:
            resolved.append(int(end))  # clip the last stride to the range end
        return resolved

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------

    def _make_cursor(self, components: Sequence[str], start_time: int,
                     end_time: int, stats: ScanStats):
        if hasattr(self.index, "scan_shards"):  # ShardedHistoryIndex
            return _ShardedReplayCursor(self.index, components, start_time,
                                        end_time, stats)
        return _IndexReplayCursor(self.index, components, start_time, stats)

    def _resolved_components(self) -> Sequence[str]:
        if self.components is not None:
            return list(self.components)
        from ..core.deltagraph import MAIN_COMPONENTS
        return list(MAIN_COMPONENTS)

    def _steps(self, times: List[int], observers: Sequence,
               stats: ScanStats) -> Iterator[ScanStep]:
        # ``stats`` is this scan's own object (created eagerly by scan()/
        # run()): interleaved generators from one scanner each accumulate
        # into the counters they were started with, never each other's.
        components = self._resolved_components()
        seed_time = times[0]
        working = self.index.get_snapshot(seed_time, components=components)
        cursor = self._make_cursor(components, seed_time, times[-1], stats)
        for observer in observers:
            observer.init(working, seed_time)
        stats.steps_emitted += 1
        yield ScanStep(seed_time, working, [])
        for time in times[1:]:
            changes = cursor.take(time)
            for event in changes:
                # Observers see the pre-application state, so incremental
                # operators can consult existence before the mutation lands.
                for observer in observers:
                    observer.apply_change(event, working)
                working.apply_event(event)
            working.time = time
            stats.events_applied += len(changes)
            stats.steps_emitted += 1
            yield ScanStep(time, working, changes)

    def scan(self, times: Optional[Sequence[int]] = None, *,
             start: Optional[int] = None, end: Optional[int] = None,
             stride: Optional[int] = None) -> Iterator[ScanStep]:
        """Yield one :class:`ScanStep` per resolved timepoint.

        Exactly one snapshot retrieval (the seed at the first timepoint) is
        planned; every later step is produced by replaying the stored
        changes between consecutive timepoints onto the working snapshot.

        ``self.stats`` is rebound to a fresh :class:`ScanStats` for each
        ``scan()``/``run()`` call (it reports the most recently *started*
        scan); a generator keeps accumulating into the stats object it was
        started with even if another scan starts meanwhile.
        """
        resolved = self.resolve_times(times, start, end, stride)
        self.stats = stats = ScanStats()
        return self._steps(resolved, (), stats)

    def run(self, operators: Iterable, times: Optional[Sequence[int]] = None,
            *, start: Optional[int] = None, end: Optional[int] = None,
            stride: Optional[int] = None) -> Dict:
        """Drive incremental operators over one scan.

        Each operator (see :class:`~repro.scan.operators.ScanOperator`)
        receives ``init`` at the seed, ``apply_change`` per replayed event
        (with the pre-application snapshot), and ``emit`` at every
        timepoint.  Returns ``{operator.name: SnapshotSeries}``.
        """
        from ..analysis.evolution import SnapshotSeries
        ops = list(operators)
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise QueryError(f"operator names must be unique, got {names}")
        emitted: Dict[str, List[object]] = {name: [] for name in names}
        out_times: List[int] = []
        resolved = self.resolve_times(times, start, end, stride)
        self.stats = stats = ScanStats()
        for step in self._steps(resolved, ops, stats):
            out_times.append(step.time)
            for op in ops:
                emitted[op.name].append(op.emit(step.time, step.graph))
        return {name: SnapshotSeries(times=list(out_times),
                                     values=emitted[name])
                for name in names}
