"""One era of a time-sharded DeltaGraph federation.

An :class:`EraShard` pairs a DeltaGraph with the metadata the cross-shard
router needs: the half-open time span ``[t_lo, t_hi)`` it owns, the store
(and its cache namespace) its payloads live in, how many events it indexed,
and whether it is *sealed* (a finished era — write-once from here on) or
the *live tail* (the one shard still accepting appends; ``t_hi`` is open).

The shard's DeltaGraph is built with ``initial_graph`` set to the previous
era's final state, so ``get_snapshot(t)`` on the owning shard returns the
full graph at ``t`` — earlier shards never need to be consulted.

The shard is also the *handle* every reader goes through, whether the era
is served by a promoted worker process or in-process: its five read calls
try the worker while it is serving and answer from the retained in-process
index otherwise, retiring (and counting) a worker that fails — so neither
the federation nor the evolution scanner knows which side answered.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.deltagraph import DeltaGraph, _store_namespace
from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from ..storage.instrumented import IOStats
from ..storage.kvstore import KVStore
from .rpc import WorkerError

__all__ = ["EraShard"]


@dataclass
class EraShard:
    """A DeltaGraph plus era metadata inside a sharded history index."""

    shard_id: int
    index: DeltaGraph
    store: KVStore
    #: Inclusive start of the era's time span.
    t_lo: int
    #: Exclusive end of the span; ``None`` while this shard is the live tail.
    t_hi: Optional[int] = None
    sealed: bool = False
    #: Events indexed by this shard (bulk-built plus appended).
    event_count: int = 0
    #: Timestamp of the newest event routed here (``None`` if none yet).
    last_time: Optional[int] = None
    #: True while ``t_lo`` is a placeholder (a tail opened over an empty
    #: trace); the federation snaps it to the first appended event's
    #: timestamp so live-grown and bulk-built era layouts agree.
    provisional_t_lo: bool = False
    #: Cache-namespace token of the shard's store — every cache entry the
    #: shard creates in a shared :class:`~repro.cache.delta_cache.DeltaCache`
    #: is keyed under this prefix, which is what keeps one cache safe to
    #: share across a whole federation.
    namespace: str = field(default="", repr=False)
    #: The shard's promoted worker-process handle
    #: (:class:`~repro.sharding.workers.ShardWorker`), or ``None`` while the
    #: shard serves in-process.  The in-process ``index`` is always retained
    #: alongside a worker — it is the fallback copy a dead worker degrades
    #: to.
    worker: Optional[Any] = field(default=None, repr=False)
    #: Reads that found the worker unusable and retired it, and how many of
    #: those found its process dead (the federation's ``totals["workers"]``
    #: sums both over shards).
    fallbacks: int = 0
    crashes: int = 0
    _retire_lock: threading.Lock = field(default_factory=threading.Lock,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.namespace:
            self.namespace = _store_namespace(self.store)

    def overlaps(self, start: int, end: int) -> bool:
        """Whether the era's span intersects the half-open ``[start, end)``."""
        if self.t_hi is not None and self.t_hi <= start:
            return False
        return self.t_lo < end

    def seal_era(self, t_hi: int) -> int:
        """Close the era at ``t_hi`` (exclusive); returns leaves sealed.

        Every buffered recent event is sealed into leaves
        (``seal(partial=True)``) so the era answers queries without a
        recent-eventlist tail.  The final seal's retired provisional
        generation is deliberately **not** purged here: queries planned just
        before the rollover may still reference those payloads, and the
        read-during-ingest grace contract says they survive one seal.  A
        sealed era never seals again, though, so nothing later would purge
        them either — the federation therefore flushes sealed shards at the
        *next* rollover (or an explicit
        :meth:`ShardedHistoryIndex.purge_retired
        <repro.sharding.federation.ShardedHistoryIndex.purge_retired>`),
        deleting the retired store keys and dropping their groups from the
        shared delta cache instead of pinning them until eviction.
        """
        sealed = self.index.seal(partial=True)
        self.t_hi = t_hi
        self.sealed = True
        return sealed

    # -- the one read path: worker while it serves, else in-process ----

    def serving_worker(self) -> Optional[Any]:
        """The worker handle when it can carry requests, else ``None``.

        A worker found dead *between* requests (crashed while idle) is
        retired and counted here, so crash accounting does not depend on
        whether the death was noticed mid-round-trip.
        """
        worker = self.worker
        if worker is not None and not worker.serving:
            self.retire_worker(worker)
            return None
        return worker

    def retire_worker(self, worker: Any) -> None:
        """Reap and detach a worker that failed, counting the fallback.

        Every later read goes straight to the retained in-process index —
        one failed round trip per dead worker, never one per query.
        """
        with self._retire_lock:
            self.fallbacks += 1
            if self.worker is worker:
                if not worker.alive:
                    self.crashes += 1
                worker.kill()
                self.worker = None

    def _read(self, method: str, *args: Any, **index_only: Any) -> Any:
        """Answer ``method(*args)`` from the worker, else from the index.

        Only *transport* failures (:class:`~repro.sharding.rpc.WorkerError`)
        fall back — the era is write-once, so both copies give the same
        answer; typed application errors a healthy worker relays (an
        out-of-range time, say) re-raise as an in-process query's would.
        ``index_only`` keywords are local conveniences (a payload scratch)
        that do not cross the process boundary.
        """
        worker = self.serving_worker()
        if worker is not None:
            try:
                return getattr(worker, method)(*args)
            except WorkerError:
                self.retire_worker(worker)
        return getattr(self.index, method)(*args, **index_only)

    def get_snapshot(self, time: int,
                     components: Optional[Sequence[str]] = None,
                     partitions: Optional[Sequence[int]] = None
                     ) -> GraphSnapshot:
        return self._read("get_snapshot", time, components, partitions)

    def get_snapshots(self, times: Sequence[int],
                      components: Optional[Sequence[str]] = None,
                      partitions: Optional[Sequence[int]] = None
                      ) -> List[GraphSnapshot]:
        return self._read("get_snapshots", times, components, partitions)

    def get_interval_graph(self, start: int, end: int,
                           components: Optional[Sequence[str]] = None,
                           include_transient: bool = True,
                           into: Optional[GraphSnapshot] = None
                           ) -> GraphSnapshot:
        """This era's part of an interval graph, accumulated onto ``into``
        (which rides the wire both ways when a worker answers, so tombstone
        chaining across eras behaves exactly as the in-process merge)."""
        return self._read("get_interval_graph", start, end, components,
                          include_transient, into)

    def replay_state(self, components: Optional[Sequence[str]] = None
                     ) -> Tuple[List, List[Event]]:
        return self._read("replay_state", components)

    def fetch_eventlist(self, eventlist_id: str,
                        components: Optional[Sequence[str]] = None,
                        scratch: Optional[Dict] = None) -> List[Event]:
        return self._read("fetch_eventlist", eventlist_id, components,
                          scratch=scratch)

    def replay_source(self) -> "EraShard":
        """The object the evolution scanner replays this era from: the
        shard itself (``replay_state`` + ``fetch_eventlist`` above), so a
        worker dying mid-scan costs one failed round trip — never a wrong
        or torn replay."""
        return self

    # -- statistics ----------------------------------------------------

    def store_io(self) -> Optional[IOStats]:
        """The in-process store's I/O counters (``None`` if uninstrumented)."""
        stats = getattr(self.store, "stats", None)
        return stats if isinstance(stats, IOStats) else None

    def worker_io(self) -> Optional[IOStats]:
        """I/O the serving worker performed *since promotion* (its baseline
        delta — the adopted parent store already carries the build's I/O,
        so nothing is counted twice)."""
        worker = self.serving_worker()
        if worker is None:
            return None
        try:
            return worker.io_delta()
        except WorkerError:
            return None  # the next read on this shard retires it

    def stats_row(self) -> Dict:
        """This shard's row of the federation's ``stats_report()``."""
        io = self.store_io()
        row = {
            "shard": self.shard_id,
            "span": [self.t_lo, self.t_hi],
            "sealed": self.sealed,
            "events": self.event_count,
            "namespace": self.namespace,
            "ingest": asdict(self.index.ingest_stats.snapshot()),
            "io": asdict(io.snapshot()) if io is not None else None,
            "pins": self.index.pinned_generations(),
            "retired_pending": self.index.retired_payload_count(),
        }
        worker = self.worker
        if worker is not None:
            winfo = {"pid": worker.pid, "alive": worker.alive,
                     "serving": worker.serving,
                     "round_trips": worker.round_trips}
            if worker.serving:
                try:
                    wreport = worker.stats_report()
                    winfo["served_ops"] = wreport.get("served_ops")
                    delta = worker.io_delta(wreport)
                    winfo["io"] = (asdict(delta) if delta is not None
                                   else None)
                    winfo["cache"] = wreport.get("cache")
                except WorkerError:
                    winfo["serving"] = False
            row["worker"] = winfo
        return row

    def describe(self) -> str:
        """Human-readable one-line summary of the shard."""
        hi = "open" if self.t_hi is None else str(self.t_hi)
        state = "sealed" if self.sealed else "live"
        return (f"EraShard(#{self.shard_id} [{self.t_lo}, {hi}) {state}, "
                f"{self.event_count} events)")
