"""Cross-shard query router over era-sharded DeltaGraphs.

The paper's DeltaGraph is one hierarchical index over one timeline; at
production scale the timeline outgrows any single index (and any single
store).  :class:`ShardedHistoryIndex` federates *era shards* — independent
DeltaGraphs over consecutive time spans, each with its own KVStore and
cache namespace — behind the same retrieval interface the managers already
speak:

* **routing** — each shard's initial graph is the previous era's final
  state, so a singlepoint query is answered entirely by the one shard
  owning its timepoint; multipoint queries split their point-set per shard
  (each :class:`~repro.sharding.shard.EraShard` answers from its worker
  process or in-process — the router does not know which), and fan the
  sub-queries out on threads when worker processes can overlap them;
* **independent construction** — era boundaries come from a
  :class:`~repro.sharding.policy.ShardPolicy`; boundary snapshots are
  computed in one sequential replay, then every era's index builds from
  its own events into its own store (concurrently, in subprocess mode);
* **live ingestion** — appends are forwarded to the live tail; when the
  policy says an incoming event starts a new era, the tail is sealed
  (:meth:`EraShard.seal_era <repro.sharding.shard.EraShard.seal_era>`) and
  a fresh shard opens with the sealed tail's final graph as its boundary
  snapshot.  A sealed era keeps its retired provisional payloads for one
  read-during-ingest grace period; the *next* rollover (or an explicit
  :meth:`ShardedHistoryIndex.purge_retired`) deletes them from the store
  and drops their groups from the shared cache;
* **one report** — ``IngestStats``/``IOStats``/cache counters aggregate
  across shards (:meth:`ShardedHistoryIndex.stats_report`).

Because the policy answers the same *should-cut* question during bulk
splitting and live ingestion, ``build(full)`` and ``build(prefix) +
ingest(suffix)`` produce identical shard layouts — the property the
sharding conformance suite checks byte-for-byte against an unsharded
DeltaGraph.
"""

from __future__ import annotations

import bisect
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cache.delta_cache import CacheStats, DeltaCache
from ..core.deltagraph import DeltaGraph, IngestStats
from ..core.events import Event, EventList
from ..core.snapshot import GraphSnapshot
from ..errors import ConfigurationError, DeltaGraphIndexError, QueryError
from ..storage.instrumented import IOStats
from ..storage.kvstore import KVStore
from ..storage.memory_store import InMemoryKVStore
from ..storage.transfer import export_store, open_store, travels_by_value
from .policy import ShardPolicy
from .shard import EraShard
from .workers import ShardWorker, WorkerError

__all__ = ["ShardedHistoryIndex"]

#: Valid values of the federation's ``worker_mode`` knob.
_WORKER_MODES = ("inprocess", "subprocess")

#: Upper bound on threads waiting on worker processes (parallel era builds,
#: cross-shard multipoint fan-out).
_DEFAULT_POOL_CAP = 8


def _sum_stats(parts: Iterable):
    """Field-wise sum of counter dataclasses (``IngestStats``/``IOStats``)."""
    parts = list(parts)
    total = type(parts[0])()
    for part in parts:
        for counter in fields(total):
            setattr(total, counter.name, getattr(total, counter.name)
                    + getattr(part, counter.name))
    return total


def _cache_recipe(cache: Optional[DeltaCache]) -> Optional[int]:
    """The shared cache's byte budget, the recipe workers build from.

    Each worker builds its **own** cache from the recipe — cache entries
    cannot be shared across the process boundary, but the byte budget
    carries over.
    """
    return None if cache is None else cache.max_bytes


class ShardedHistoryIndex:
    """A federation of era-sharded DeltaGraphs behind one query interface.

    Construct through :meth:`build`; the managers construct one
    transparently when given a ``shard_policy``
    (:meth:`HistoryManager.build_index
    <repro.query.managers.HistoryManager.build_index>`).
    """

    def __init__(self, shards: List[EraShard], policy: ShardPolicy,
                 store_factory: Callable[[int], KVStore],
                 cache: Optional[DeltaCache] = None,
                 index_kwargs: Optional[Dict] = None,
                 worker_mode: str = "inprocess") -> None:
        if not shards:
            raise ConfigurationError("a sharded index needs at least one shard")
        if worker_mode not in _WORKER_MODES:
            raise ConfigurationError(
                f"worker_mode must be one of {_WORKER_MODES}, "
                f"got {worker_mode!r}")
        self._shards = shards
        self.policy = policy
        self._store_factory = store_factory
        self._cache = cache
        self._index_kwargs = dict(index_kwargs or {})
        self._t_los = [shard.t_lo for shard in shards]
        self._lock = threading.RLock()
        #: Initial graph of a federation opened over an empty trace, kept so
        #: the placeholder tail can be re-anchored if the first appended
        #: event predates its provisional leaf-0 timestamp.
        self._tail_seed: Optional[GraphSnapshot] = None
        self._worker_mode = worker_mode
        #: Worker lifecycle events the federation itself drives; each shard
        #: counts its own fallbacks/crashes (see :attr:`_worker_events`).
        self._lifecycle = {"promotions": 0, "worker_builds": 0,
                           "build_fallbacks": 0}
        if worker_mode == "subprocess":
            self.promote_shards()

    # ==================================================================
    # construction
    # ==================================================================

    @classmethod
    def build(cls, events: Iterable[Event], policy: ShardPolicy,
              store_factory: Optional[Callable[[int], KVStore]] = None,
              build_workers: Optional[int] = None,
              cache: Optional[DeltaCache] = None,
              cache_max_bytes: int = 0,
              initial_graph: Optional[GraphSnapshot] = None,
              worker_mode: str = "inprocess",
              **index_kwargs) -> "ShardedHistoryIndex":
        """Split a trace into eras and build every era's index in parallel.

        ``store_factory`` maps a shard id to a fresh :class:`KVStore` (the
        default creates in-memory stores); it is retained for live-tail
        rollovers.  ``build_workers`` caps how many worker processes build
        at once (subprocess mode; in-process builds share one interpreter
        lock, so they run one after another).
        The cache knobs create (or accept) **one** shared
        :class:`~repro.cache.delta_cache.DeltaCache` installed on every
        shard — per-store namespacing keeps their entries apart.  Remaining
        ``index_kwargs`` (leaf size, arity, codec, ...) are applied to every
        shard's
        :meth:`DeltaGraph.build <repro.core.deltagraph.DeltaGraph.build>`.

        With ``worker_mode="subprocess"`` each era builds in its **own
        worker process** (shared-nothing, so the parallelism is real on
        multi-core hardware rather than GIL-bound threads); the built
        state and store travel back, the router retains an in-process
        fallback copy of every era, and sealed eras keep their workers
        serving sub-queries.  A worker that dies mid-build degrades to an
        in-process rebuild of just that era — the log-structured store
        makes the retry idempotent.
        """
        if worker_mode not in _WORKER_MODES:
            raise ConfigurationError(
                f"worker_mode must be one of {_WORKER_MODES}, "
                f"got {worker_mode!r}")
        if index_kwargs.get("aux_indexes"):
            raise ConfigurationError(
                "auxiliary indexes are not supported on a sharded index "
                "(aux state cannot yet be rebased across era boundaries)")
        index_kwargs.pop("aux_indexes", None)
        for knob in ("store", "start_time"):
            if knob in index_kwargs:
                raise ConfigurationError(
                    f"{knob!r} is managed per shard; pass the sharded "
                    "builder's own parameters instead")
        if build_workers is not None and build_workers < 1:
            raise ConfigurationError("build_workers must be >= 1")
        if cache is None and cache_max_bytes > 0:
            cache = DeltaCache(max_bytes=cache_max_bytes)
        if store_factory is None:
            store_factory = lambda shard_id: InMemoryKVStore()  # noqa: E731

        event_list = (events if isinstance(events, EventList)
                      else EventList(events))
        eras = policy.split(event_list)
        if not eras:
            # Empty trace: open a bare live tail; appends shard from there.
            start = (initial_graph.time
                     if initial_graph is not None and
                     initial_graph.time is not None else 0)
            store = store_factory(0)
            index = DeltaGraph.build(
                [], store=store, initial_graph=initial_graph,
                start_time=start, cache=cache, **index_kwargs)
            tail = EraShard(shard_id=0, index=index, store=store,
                            t_lo=start + 1)
            # The span start is a placeholder until the first event arrives;
            # append_batch snaps it to that event's timestamp so the era
            # layout (and e.g. a TimeSpanPolicy's boundary anchor) matches
            # what a bulk build over the same trace would produce.
            tail.provisional_t_lo = True
            federation = cls([tail], policy, store_factory, cache=cache,
                             index_kwargs=index_kwargs,
                             worker_mode=worker_mode)
            federation._tail_seed = initial_graph
            return federation

        # One sequential replay computes every era-boundary snapshot (the
        # initial graph of era k is the final state of era k-1); compact()
        # gives each era a private flat base so the parallel builds below
        # share nothing mutable.
        boundaries: List[GraphSnapshot] = []
        current = (initial_graph.copy() if initial_graph is not None
                   else GraphSnapshot.empty())
        for _t_lo, era_events in eras[:-1]:
            for event in era_events:
                current.apply_event(event)
            boundary = current.copy()
            boundary.compact()
            boundaries.append(boundary)

        stores = [store_factory(i) for i in range(len(eras))]
        cache_conf = _cache_recipe(cache)
        build_events = {"promotions": 0, "worker_builds": 0,
                        "build_fallbacks": 0}
        handles: List[Optional[ShardWorker]] = [None] * len(eras)

        def era_inputs(position: int):
            t_lo, era_events = eras[position]
            base = initial_graph if position == 0 else boundaries[position - 1]
            # Era 0 leaves start_time to _bulk_load's inference so a caller
            # initial_graph with an earlier timestamp anchors pre-history
            # exactly like an unsharded build; later eras pin their boundary
            # explicitly (their initial graph's history lives in the shards
            # before them).
            start = None if position == 0 else min(t_lo,
                                                   era_events[0].time) - 1
            return era_events, base, start

        def build_era(position: int,
                      store: Optional[KVStore] = None) -> DeltaGraph:
            era_events, base, start = era_inputs(position)
            return DeltaGraph.build(
                era_events,
                store=stores[position] if store is None else store,
                initial_graph=base, start_time=start, cache=cache,
                **index_kwargs)

        def build_era_in_worker(position: int) -> DeltaGraph:
            era_events, base, start = era_inputs(position)
            store = stores[position]
            spec, payload = export_store(store)
            if not travels_by_value(spec):
                # The worker is about to write the disk path; the parent's
                # fresh handle must not stay open alongside it.  The
                # fallback below reopens the path (journal recovery +
                # torn-tail truncation) instead.
                store.close()
            handle = None
            try:
                handle = ShardWorker.spawn(position)
                state, back_spec, back_payload = handle.build_era(
                    era_events, base, start, spec, payload,
                    index_kwargs, cache_conf)
            except WorkerError:
                # The era's worker died (or never came up): rebuild this
                # one era in-process.  A torn store is safe to rebuild
                # over — reopening runs journal recovery, and re-appending
                # the same records is idempotent under the log store's
                # latest-wins reads.
                if handle is not None:
                    handle.kill()
                build_events["build_fallbacks"] += 1
                fallback = (store if travels_by_value(spec)
                            else open_store(spec))
                stores[position] = fallback
                return build_era(position, store=fallback)
            adopted = open_store(back_spec, back_payload)
            stores[position] = adopted
            handles[position] = handle
            build_events["worker_builds"] += 1
            return DeltaGraph.from_state(state, adopted, cache)

        if worker_mode == "subprocess":
            # One thread per era only *waits* on that era's worker process.
            with ThreadPoolExecutor(max_workers=build_workers
                                    or _DEFAULT_POOL_CAP) as pool:
                indexes = list(pool.map(build_era_in_worker,
                                        range(len(eras))))
        else:
            indexes = [build_era(i) for i in range(len(eras))]

        shards: List[EraShard] = []
        for i, ((t_lo, era_events), index) in enumerate(zip(eras, indexes)):
            is_tail = i == len(eras) - 1
            shard = EraShard(
                shard_id=i, index=index, store=stores[i], t_lo=t_lo,
                t_hi=None if is_tail else eras[i + 1][0],
                sealed=not is_tail, event_count=len(era_events),
                last_time=era_events.end_time)
            if handles[i] is not None:
                if is_tail:
                    # Appends go to the in-process tail; its build worker
                    # has nothing more to do.
                    handles[i].shutdown()
                else:
                    # The era keeps its build worker serving: a promotion
                    # that cost no extra hand-off.
                    shard.worker = handles[i]
                    build_events["promotions"] += 1
            shards.append(shard)
        federation = cls(shards, policy, store_factory, cache=cache,
                         index_kwargs=index_kwargs, worker_mode=worker_mode)
        for event, count in build_events.items():
            federation._lifecycle[event] += count
        return federation

    # ==================================================================
    # routing
    # ==================================================================

    @property
    def shards(self) -> List[EraShard]:
        """The era shards, oldest first (the last one is the live tail)."""
        return list(self._shards)

    @property
    def tail(self) -> EraShard:
        """The live tail — the only shard accepting appends."""
        return self._shards[-1]

    def _shard_index_for(self, time: int) -> int:
        """Position of the shard owning ``time``.

        Rightmost shard whose ``t_lo`` is at or before ``time``; times
        before the first era belong to the first shard (whose initial
        boundary snapshot covers all of pre-history), times at or past the
        tail's ``t_lo`` to the tail.
        """
        return max(bisect.bisect_right(self._t_los, time) - 1, 0)

    def shard_for(self, time: int) -> EraShard:
        """The era shard owning ``time``."""
        return self._shards[self._shard_index_for(time)]

    def shard_key_for_time(self, time: int) -> str:
        """Stable shard key (``"era<i>"``) for pool/cache bookkeeping."""
        return f"era{self._shard_index_for(time)}"

    # -- shard-qualified node ids --------------------------------------

    def _resolve_node(self, node_id: str) -> Tuple[EraShard, str]:
        shard_part, _slash, rest = node_id.partition("/")
        if rest and shard_part.startswith("era"):
            try:
                position = int(shard_part[3:])
            except ValueError:
                position = -1
            if 0 <= position < len(self._shards):
                return self._shards[position], rest
        raise DeltaGraphIndexError(
            "sharded node ids are shard-qualified, e.g. 'era0/leaf:3' "
            f"(got {node_id!r})")

    def node_time(self, node_id: str) -> Optional[int]:
        """Timestamp of a shard-qualified skeleton node."""
        shard, local_id = self._resolve_node(node_id)
        return shard.index.node_time(local_id)

    def shard_key_for_node(self, node_id: str) -> str:
        """The ``"era<i>"`` prefix of a shard-qualified node id."""
        shard, _local = self._resolve_node(node_id)
        return f"era{shard.shard_id}"

    def materialize(self, node_id: str) -> GraphSnapshot:
        """Materialize a shard-qualified node (``"era2/interior:..."``)."""
        shard, local_id = self._resolve_node(node_id)
        return shard.index.materialize(local_id)

    # ==================================================================
    # worker pool (subprocess mode)
    # ==================================================================

    @property
    def worker_mode(self) -> str:
        """``"inprocess"`` or ``"subprocess"`` (the routing knob)."""
        return self._worker_mode

    @property
    def _worker_events(self) -> Dict[str, int]:
        """Federation-wide worker lifecycle counters (surfaced by
        :meth:`stats_report` under ``totals["workers"]``)."""
        return {**self._lifecycle,
                "fallbacks": sum(shard.fallbacks for shard in self._shards),
                "crashes": sum(shard.crashes for shard in self._shards)}

    def _promote_shard(self, shard: EraShard) -> bool:
        """Spawn a worker for one sealed shard and ship the shard to it.

        Returns False (leaving the shard in-process) if the worker cannot
        be spawned or loaded — promotion is an optimization, never a
        correctness requirement.
        """
        try:
            worker = ShardWorker.spawn(shard.shard_id)
        except WorkerError:
            return False
        try:
            worker.load_shard(shard.index, shard.store,
                              _cache_recipe(self._cache))
        except WorkerError:
            worker.kill()
            return False
        shard.worker = worker
        self._lifecycle["promotions"] += 1
        return True

    def promote_shards(self) -> int:
        """Promote every sealed shard without a serving worker.

        Returns the number of shards promoted.  Called automatically when
        the federation is constructed in subprocess mode (each rollover
        promotes the era it seals); shards whose build already left them a
        serving worker are not re-promoted.
        """
        if self._worker_mode != "subprocess":
            return 0
        promoted = 0
        with self._lock:
            for shard in self._shards:
                if (shard.sealed and shard.serving_worker() is None
                        and self._promote_shard(shard)):
                    promoted += 1
        return promoted

    def health_check(self, timeout: float = 10.0
                     ) -> Dict[int, Optional[bool]]:
        """Ping every shard's worker: ``{shard_id: status}``.

        ``True`` — answered within the deadline; ``False`` — dead or
        expired (the worker is retired on the spot, so the shard already
        fell back in-process); ``None`` — the shard has no worker.
        """
        report: Dict[int, Optional[bool]] = {}
        for shard in self.shards:
            if shard.worker is None:
                report[shard.shard_id] = None
                continue
            worker = shard.serving_worker()
            if worker is not None:
                try:
                    worker.ping(timeout=timeout)
                except WorkerError:
                    shard.retire_worker(worker)
                    worker = None
            report[shard.shard_id] = worker is not None
        return report

    def close(self) -> None:
        """Gracefully shut down every shard worker (idempotent).

        The federation stays fully usable afterwards — every query routes
        to the retained in-process indexes, exactly as in
        ``worker_mode="inprocess"``.
        """
        with self._lock:
            for shard in self._shards:
                worker = shard.worker
                if worker is not None:
                    worker.shutdown()
                    shard.worker = None

    def __enter__(self) -> "ShardedHistoryIndex":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ==================================================================
    # retrieval
    # ==================================================================

    def get_snapshot(self, time: int,
                     components: Optional[Sequence[str]] = None,
                     partitions: Optional[Sequence[int]] = None
                     ) -> GraphSnapshot:
        """Singlepoint retrieval, routed to the era shard owning ``time``
        (one worker round trip when the era is promoted — see
        :meth:`EraShard._read <repro.sharding.shard.EraShard._read>`)."""
        return self.shard_for(time).get_snapshot(time, components, partitions)

    def get_snapshots(self, times: Sequence[int],
                      components: Optional[Sequence[str]] = None,
                      partitions: Optional[Sequence[int]] = None
                      ) -> List[GraphSnapshot]:
        """Multipoint retrieval: the point-set splits per owning shard.

        Each spanned shard answers its sub-set with its own multipoint
        Steiner plan (sharing deltas *within* the shard exactly as an
        unsharded index would).  Cross-shard overhead is therefore bounded
        by the number of shards spanned: no delta is fetched twice, and no
        shard outside the point-set's eras is touched at all.  When a
        spanned shard is served by a worker process the sub-queries run
        concurrently, one thread per shard, so the processes overlap;
        in-process shards share one interpreter lock and threads buy them
        nothing, so they are answered one after another.
        """
        by_shard: Dict[int, List[int]] = {}
        for position, time in enumerate(times):
            by_shard.setdefault(self._shard_index_for(time), []).append(
                position)

        def run(entry: Tuple[int, List[int]]) -> List[GraphSnapshot]:
            shard_position, positions = entry
            return self._shards[shard_position].get_snapshots(
                [times[p] for p in positions], components, partitions)

        groups = list(by_shard.items())
        if len(groups) > 1 and any(self._shards[position].worker is not None
                                   for position in by_shard):
            with ThreadPoolExecutor(
                    max_workers=min(len(groups), _DEFAULT_POOL_CAP)) as pool:
                answers = list(pool.map(run, groups))
        else:
            answers = [run(entry) for entry in groups]
        results: List[Optional[GraphSnapshot]] = [None] * len(times)
        for (_shard_position, positions), snapshots in zip(groups, answers):
            for position, snapshot in zip(positions, snapshots):
                results[position] = snapshot
        return results  # type: ignore[return-value]

    def get_interval_graph(self, start: int, end: int,
                           components: Optional[Sequence[str]] = None,
                           include_transient: bool = True) -> GraphSnapshot:
        """Elements added during ``[start, end)``, chained across eras.

        The overlapping shards replay their era's events *into one
        accumulator snapshot* in chronological era order — a dict-style
        merge would lose attribute tombstones (a deletion in a later era
        must erase attribute entries accumulated from an earlier one).
        """
        combined = GraphSnapshot.empty()
        for shard in self._shards:
            if shard.overlaps(start, end):
                combined = shard.get_interval_graph(
                    start, end, components, include_transient, into=combined)
        return combined

    def get_aux_snapshot(self, index_name: str, time: int) -> dict:
        raise QueryError(
            "auxiliary indexes are not supported on a sharded index")

    def scan_shards(self, start: int, end: int) -> List[EraShard]:
        """Era shards that may hold events with ``start < e.time <= end``.

        The cross-shard contract of the
        :class:`~repro.scan.scanner.EvolutionScanner`: a scan that seeds at
        ``start`` replays each returned shard's leaf-eventlists in era
        order, entering every era at its boundary snapshot for free — the
        working snapshot at ``t_lo`` *is* the next era's initial graph, so
        no shard outside this list is ever read (zero foreign-shard reads).
        """
        with self._lock:
            return [shard for shard in self._shards
                    if shard.overlaps(start + 1, end + 1)]

    # ==================================================================
    # live ingestion (tail + era rollover)
    # ==================================================================

    def append(self, event: Event) -> None:
        """Ingest one live event (see :meth:`append_batch`)."""
        self.append_batch((event,))

    def append_batch(self, events: Iterable[Event]) -> int:
        """Forward live events to the tail, rolling eras over as cut.

        Each event is checked against the shard policy *before* it is
        appended: when a cut falls before it, the buffered prefix flushes
        into the current tail, the tail seals (keeping its final retired
        generation for one grace period — see :meth:`EraShard.seal_era
        <repro.sharding.shard.EraShard.seal_era>`), and a fresh shard opens
        at the cut with the sealed tail's final graph as its boundary
        snapshot.  Returns the number of events ingested.
        """
        with self._lock:
            total = 0
            tail = self._shards[-1]
            buffer: List[Event] = []
            for event in events:
                if (tail.provisional_t_lo and not buffer
                        and tail.event_count == 0):
                    if event.time != tail.t_lo:
                        # The first real event does not sit on the
                        # placeholder anchor (earlier: negative timestamps;
                        # later: a trace starting past 0): re-open the
                        # pristine tail one tick before it, exactly where a
                        # bulk build over the same trace would put leaf 0 —
                        # otherwise queries between the placeholder and the
                        # first event would answer instead of raising.  The
                        # store holds at most the seed's provisional
                        # super-root delta, rewritten under the same keys.
                        tail.index = DeltaGraph.build(
                            [], store=tail.store,
                            initial_graph=self._tail_seed,
                            start_time=event.time - 1, cache=self._cache,
                            **self._index_kwargs)
                    tail.t_lo = event.time
                    tail.provisional_t_lo = False
                    self._t_los[-1] = event.time
                last_time = buffer[-1].time if buffer else tail.last_time
                cut = self.policy.should_cut(
                    tail.event_count + len(buffer), tail.t_lo, last_time,
                    event.time)
                if cut is not None:
                    total += self._flush(tail, buffer)
                    buffer = []
                    tail = self._rollover(cut)
                buffer.append(event)
            total += self._flush(tail, buffer)
            return total

    def _flush(self, tail: EraShard, buffer: List[Event]) -> int:
        """Append a buffered run to the tail, tracking the accepted prefix.

        The tail's DeltaGraph counts every accepted event even when a
        mid-batch append fails (a rejected out-of-order event, a store
        error during a seal), so the shard metadata stays in lock-step with
        the index on failure — the same contract
        :meth:`GraphManager.ingest <repro.query.managers.GraphManager.ingest>`
        relies on one level up.
        """
        if not buffer:
            return 0
        before = tail.index.ingest_stats.events_appended
        try:
            return tail.index.append_batch(buffer)
        finally:
            accepted = tail.index.ingest_stats.events_appended - before
            tail.event_count += accepted
            if accepted:
                tail.last_time = buffer[accepted - 1].time

    def _rollover(self, new_t_lo: int) -> EraShard:
        """Seal the live tail at ``new_t_lo`` and open a fresh shard there.

        The previously sealed shard flushes its read-during-ingest grace
        period now: its retired provisional payloads have survived a whole
        era of traffic since *its* rollover, so no in-flight plan can still
        reference them, and without this purge nothing would ever delete
        them (a sealed era never seals again).  Only that one shard can
        hold retired payloads — every older one was purged at the rollover
        after its own and never appends again — so rollover stays O(1).
        The shard sealed *by this rollover* keeps its grace period until
        the next one.
        """
        old_tail = self._shards[-1]
        if len(self._shards) >= 2:
            self._shards[-2].index.purge_retired()
        old_tail.seal_era(new_t_lo)
        boundary = old_tail.index.current_graph()
        boundary.compact()
        store = self._store_factory(len(self._shards))
        index = DeltaGraph.build(
            [], store=store, initial_graph=boundary,
            start_time=new_t_lo - 1, cache=self._cache, **self._index_kwargs)
        tail = EraShard(shard_id=len(self._shards), index=index, store=store,
                        t_lo=new_t_lo)
        self._shards.append(tail)
        self._t_los.append(new_t_lo)
        if self._worker_mode == "subprocess":
            # The era sealed by this rollover is write-once now — promote
            # it so the worker pool tracks the era layout as it grows.
            self._promote_shard(old_tail)
        return tail

    def seal(self, partial: bool = True) -> int:
        """Seal the tail's buffered recent events into leaves now."""
        with self._lock:
            return self._shards[-1].index.seal(partial=partial)

    def purge_retired(self) -> int:
        """Flush every shard's read-during-ingest grace period now.

        Payloads covered by an active reader pin
        (:meth:`pin_generation`) are kept, exactly as on a single
        :class:`~repro.core.deltagraph.DeltaGraph`.
        """
        with self._lock:
            return sum(shard.index.purge_retired()
                       for shard in self._shards)

    def pin_generation(self) -> Tuple[int, ...]:
        """Pin the reader generation of every era shard.

        Returns an opaque token (one pin per shard in shard order) for
        :meth:`unpin_generation`.  Shards opened by rollovers *after* the
        pin was taken are not covered — a pinned reader's plans predate
        them, so they have nothing the reader could reference.
        """
        with self._lock:
            return tuple(shard.index.pin_generation()
                         for shard in self._shards)

    def unpin_generation(self, token: Tuple[int, ...]) -> None:
        """Release the per-shard pins taken by :meth:`pin_generation`."""
        with self._lock:
            for shard, pin in zip(self._shards, token):
                shard.index.unpin_generation(pin)

    def current_graph(self) -> GraphSnapshot:
        """The up-to-date current graph (owned by the live tail)."""
        return self._shards[-1].index.current_graph()

    @property
    def partitioner(self):
        """The shared element partitioner (identical on every shard).

        Every shard builds from the same ``index_kwargs``, so any shard's
        partitioner hashes identically; exposing the tail's lets a
        federation stand in for a single DeltaGraph inside
        :class:`~repro.distributed.partitioned.PartitionedHistoricalGraphStore`.
        """
        return self._shards[-1].index.partitioner

    # ==================================================================
    # cache plumbing
    # ==================================================================

    @property
    def cache(self) -> Optional[DeltaCache]:
        """The shared cross-query delta cache (``None`` when disabled)."""
        return self._cache

    def set_cache(self, cache: Optional[DeltaCache]) -> None:
        """Install one shared cache on every shard (or remove with None)."""
        self._cache = cache
        for shard in self._shards:
            shard.index.set_cache(cache)

    def cache_stats(self) -> Optional[CacheStats]:
        """Counters of the shared cache (``None`` when caching is off)."""
        return self._cache.stats() if self._cache is not None else None

    # ==================================================================
    # statistics, aggregated across shards
    # ==================================================================

    @property
    def ingest_stats(self) -> IngestStats:
        """Federation-wide ingestion counters (sum over all shards)."""
        return _sum_stats(shard.index.ingest_stats for shard in self._shards)

    def io_stats(self) -> Optional[IOStats]:
        """Summed I/O counters of instrumented shard stores.

        ``None`` when no shard store exposes
        :class:`~repro.storage.instrumented.IOStats` counters.  Serving
        workers contribute the I/O they performed *since promotion* (their
        baseline delta — the adopted parent store already carries the
        build's I/O, so nothing is counted twice).
        """
        parts = [io for io in
                 [shard.store_io() for shard in self._shards]
                 + [shard.worker_io() for shard in self._shards]
                 if io is not None]
        return _sum_stats(parts) if parts else None

    def index_size_bytes(self) -> int:
        """Total stored payload bytes across shards (where reported)."""
        return sum(shard.index.index_size_bytes() for shard in self._shards)

    def stats_report(self) -> Dict:
        """One aggregated report: per-shard rows plus federation totals."""
        per_shard = [shard.stats_row() for shard in self._shards]
        totals = {
            "shards": len(self._shards),
            "events": sum(shard.event_count for shard in self._shards),
            "ingest": asdict(self.ingest_stats),
        }
        io_total = self.io_stats()
        if io_total is not None:
            totals["io"] = asdict(io_total)
        worker_events = self._worker_events
        if self._worker_mode == "subprocess" or any(worker_events.values()):
            totals["workers"] = {
                "mode": self._worker_mode,
                "active": sum(1 for shard in self._shards
                              if shard.serving_worker() is not None),
                "round_trips": sum(shard.worker.round_trips
                                   for shard in self._shards
                                   if shard.worker is not None),
                **worker_events,
            }
        cache = self.cache_stats()
        report = {"policy": self.policy.describe(), "per_shard": per_shard,
                  "totals": totals}
        if cache is not None:
            report["cache"] = asdict(cache)
        return report

    def describe(self) -> str:
        """Human-readable one-line summary of the federation."""
        spans = ", ".join(shard.describe() for shard in self._shards[-3:])
        return (f"ShardedHistoryIndex({len(self._shards)} shards, "
                f"policy={self.policy.describe()}, newest: {spans})")
