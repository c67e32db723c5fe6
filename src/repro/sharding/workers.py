"""Era-shard worker processes and their router-side handles.

A sealed :class:`~repro.sharding.shard.EraShard` is write-once, which makes
it safe to *promote*: a worker process gets the shard's detached DeltaGraph
state plus a recipe for opening the same store
(:func:`~repro.storage.transfer.export_store`), opens its **own**
``DiskKVStore`` file handle and its own :class:`DeltaCache`, and from then
on answers that era's sub-queries over a socket — one OS process per era,
so cross-shard multipoint fan-out and parallel era builds stop being
GIL-bound.  The wire format is :mod:`repro.sharding.rpc` (an op table over
the shared :mod:`repro.wire` layer).

Two pieces live here:

* :func:`worker_main` / ``_worker_entry`` — the child process: a lockstep
  serve loop dispatching one opcode at a time over one connection;
* :class:`ShardWorker` — the router-side handle: spawn (``spawn`` start
  method; a forked child would inherit the router's locks mid-flight),
  health-check ping, graceful idempotent shutdown, and crash detection
  that turns EOF/timeouts into the typed
  :class:`~repro.sharding.rpc.WorkerError` family that
  :class:`~repro.sharding.shard.EraShard`'s automatic in-process fallback
  dispatches on.

Fault injection (test-only): the ``REPRO_WORKER_FAULT`` environment
variable (inherited by spawned children) names ``stage:shard_id`` pairs —
``"build:2"`` makes shard 2's worker die *after* writing its era build but
*before* acknowledging it, which is exactly the torn-store case the
fallback rebuild must survive.  ``OP_CRASH`` kills a worker mid-request
without a response frame.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time as time_module
import weakref
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cache.delta_cache import DeltaCache
from ..core.deltagraph import DeltaGraph
from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from ..storage.instrumented import IOStats
from ..storage.transfer import export_store, open_store
from . import rpc
from .rpc import (
    WorkerCrashed,
    WorkerError,
    WorkerProtocolError,
    WorkerTimeout,
)

__all__ = [
    "ShardWorker",
    "WorkerCrashed",
    "WorkerError",
    "WorkerProtocolError",
    "WorkerTimeout",
    "worker_main",
]

#: Default per-request deadline.  Generous — era builds over large traces
#: run under it — while still bounding how long a wedged worker can stall
#: a query before the in-process fallback answers instead.
DEFAULT_REQUEST_TIMEOUT = 120.0

#: Default deadline for the child process to come up and connect back.
DEFAULT_SPAWN_TIMEOUT = 60.0

#: Default health-check deadline (much tighter than a query's).
DEFAULT_PING_TIMEOUT = 10.0


def _fault_matches(stage: str, shard_id: int) -> bool:
    """Whether ``REPRO_WORKER_FAULT`` names this ``stage:shard_id`` pair."""
    spec = os.environ.get("REPRO_WORKER_FAULT", "")
    if not spec:
        return False
    return any(part.strip() == f"{stage}:{shard_id}"
               for part in spec.split(","))


def _make_cache(cache_conf: Optional[int]) -> Optional[DeltaCache]:
    return None if cache_conf is None else DeltaCache(max_bytes=cache_conf)


# ---------------------------------------------------------------------------
# worker process (child side)
# ---------------------------------------------------------------------------

class _WorkerRuntime:
    """The child process's mutable state: its shard's index + resources."""

    __slots__ = ("shard_id", "index", "store", "cache", "served_ops")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.index: Optional[DeltaGraph] = None
        self.store = None
        self.cache: Optional[DeltaCache] = None
        self.served_ops = 0

    def require_index(self) -> DeltaGraph:
        if self.index is None:
            raise WorkerProtocolError(
                f"worker for shard {self.shard_id} has no loaded index "
                "(LOAD_SHARD or BUILD_ERA must come first)")
        return self.index

    def adopt(self, index: DeltaGraph, store, cache) -> None:
        self.index = index
        self.store = store
        self.cache = cache


def _load_shard(runtime: _WorkerRuntime, shard: tuple) -> None:
    state, spec, store_payload, cache_conf = shard
    store = open_store(spec, store_payload)
    cache = _make_cache(cache_conf)
    runtime.adopt(DeltaGraph.from_state(state, store, cache), store, cache)


def _build_era(runtime: _WorkerRuntime, era: tuple,
               initial_graph: Optional[GraphSnapshot],
               events: List[Event]) -> tuple:
    spec, store_payload, index_kwargs, cache_conf, start_time = era
    store = open_store(spec, store_payload)
    cache = _make_cache(cache_conf)
    index = DeltaGraph.build(events, store=store, initial_graph=initial_graph,
                             start_time=start_time, cache=cache,
                             **index_kwargs)
    if _fault_matches("build", runtime.shard_id):
        # Torn-build fault: the store holds a complete era the router never
        # heard about.  Its retried in-process build re-appends the same
        # records; the log-structured store's latest-wins reads make the
        # retry idempotent, which tests/test_shard_workers.py proves.
        flush = getattr(store, "flush", None)
        if flush is not None:
            flush()
        os._exit(3)
    runtime.adopt(index, store, cache)
    return (index.detach_state(), *export_store(store))


def _stats(runtime: _WorkerRuntime) -> Dict:
    index = runtime.require_index()
    io = index.io_stats()
    cache_stats = (runtime.cache.stats() if runtime.cache is not None
                   else None)
    return {
        "pid": os.getpid(),
        "served_ops": runtime.served_ops,
        "ingest": asdict(index.ingest_stats.snapshot()),
        "io": asdict(io) if io is not None else None,
        "cache": asdict(cache_stats) if cache_stats is not None else None,
        "index_size_bytes": index.index_size_bytes(),
    }


def _ping(runtime: _WorkerRuntime, delay: float) -> int:
    if delay > 0:
        time_module.sleep(delay)
    return os.getpid()


def _index_read(method: str) -> Callable:
    """A handler answering with the loaded index's ``method``, called with
    the request's fields in :data:`rpc.CALLS <repro.sharding.rpc.CALLS>`
    order (which is the method's own parameter order)."""
    def handler(runtime: _WorkerRuntime, *args: Any) -> Any:
        return getattr(runtime.require_index(), method)(*args)
    return handler


#: opcode -> ``handler(runtime, *request fields) -> response value(s)``.
_HANDLERS: Dict[int, Callable[..., Any]] = {
    rpc.OP_LOAD_SHARD: _load_shard,
    rpc.OP_BUILD_ERA: _build_era,
    rpc.OP_GET_SNAPSHOT: _index_read("get_snapshot"),
    rpc.OP_GET_SNAPSHOTS: _index_read("get_snapshots"),
    rpc.OP_GET_INTERVAL: _index_read("get_interval_graph"),
    rpc.OP_REPLAY_STATE: _index_read("replay_state"),
    rpc.OP_FETCH_EVENTLIST: _index_read("fetch_eventlist"),
    rpc.OP_STATS: _stats,
    rpc.OP_PING: _ping,
}


def worker_main(sock: socket.socket, shard_id: int) -> None:
    """Serve one shard over one connection until shutdown or disconnect.

    Strict lockstep: read one request frame, dispatch, write one response
    frame.  Application failures are relayed typed
    (:func:`~repro.sharding.rpc.error_code_for`); only a transport failure
    or an explicit ``SHUTDOWN``/``CRASH`` ends the loop.
    """
    runtime = _WorkerRuntime(shard_id)
    try:
        while True:
            try:
                body = rpc.recv_frame(sock)
            except WorkerError:
                return  # router went away; nothing to answer
            request_id, opcode, payload = rpc.decode_request(body)
            if opcode == rpc.OP_CRASH:
                os._exit(9)
            if (opcode in (rpc.OP_GET_SNAPSHOT, rpc.OP_GET_SNAPSHOTS)
                    and _fault_matches("query", runtime.shard_id)):
                # Mid-query crash fault: die after accepting the request,
                # before any response byte — the router sees a hard EOF on
                # a round trip already in flight.
                os._exit(9)
            if opcode == rpc.OP_SHUTDOWN:
                rpc.send_frame(sock, rpc.encode_response(request_id))
                return
            try:
                args = rpc.decode_args(opcode, payload)
                result = _HANDLERS[opcode](runtime, *args)
                runtime.served_ops += 1
                response = rpc.encode_response(
                    request_id, rpc.encode_result(opcode, result))
            except Exception as exc:  # relay typed, keep serving
                response = rpc.encode_error(request_id,
                                            rpc.error_code_for(exc),
                                            str(exc))
            rpc.send_frame(sock, response)
    finally:
        sock.close()
        if runtime.store is not None:
            close = getattr(runtime.store, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass


def _worker_entry(host: str, port: int, shard_id: int) -> None:
    """Child-process entry point: connect back to the router and serve."""
    try:
        sock = socket.create_connection((host, port), timeout=30.0)
    except OSError:
        return  # router died before we came up
    sock.settimeout(None)
    worker_main(sock, shard_id)


# ---------------------------------------------------------------------------
# router-side handle
# ---------------------------------------------------------------------------

def _reap(process: multiprocessing.process.BaseProcess,
          sock: Optional[socket.socket]) -> None:
    """Last-resort cleanup shared by close paths and the GC finalizer.

    Idempotent: a process object already reaped (and closed) is left
    alone.
    """
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass
    try:
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        # Release the multiprocessing bookkeeping (pidfd/sentinel) eagerly.
        if not process.is_alive():
            process.close()
    except ValueError:
        pass  # process object already closed by an earlier teardown


class ShardWorker:
    """Router-side handle of one era-shard worker process.

    All round trips are serialized under one lock (the protocol is
    lockstep); concurrency across shards comes from one handle per shard.
    Any transport failure marks the handle dead, tears the process down,
    and raises a typed :class:`~repro.sharding.rpc.WorkerError` — the
    federation catches exactly those to fall back in-process.
    """

    def __init__(self, shard_id: int,
                 process: multiprocessing.process.BaseProcess,
                 sock: socket.socket,
                 request_timeout: float) -> None:
        self.shard_id = shard_id
        self._process = process
        self._sock: Optional[socket.socket] = sock
        self._request_timeout = request_timeout
        self._lock = threading.RLock()
        self._request_id = 0
        self._dead = False
        self._closed = False
        self.round_trips = 0
        #: Worker-side I/O counters right after load/build — deltas against
        #: this baseline are the worker's own contribution, so federation
        #: totals never double-count I/O the adopted parent store already
        #: carries.
        self._io_baseline: Optional[IOStats] = None
        self._finalizer = weakref.finalize(self, _reap, process, sock)

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def spawn(cls, shard_id: int,
              request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
              spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT) -> "ShardWorker":
        """Start a worker process and wait for it to connect back."""
        ctx = multiprocessing.get_context("spawn")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(spawn_timeout)
            host, port = listener.getsockname()
            process = ctx.Process(target=_worker_entry,
                                  args=(host, port, shard_id),
                                  name=f"repro-shard-worker-{shard_id}",
                                  daemon=True)
            process.start()
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                _reap(process, None)
                raise WorkerCrashed(
                    f"worker for shard {shard_id} did not connect within "
                    f"{spawn_timeout:.0f}s") from None
        finally:
            listener.close()
        sock.settimeout(request_timeout)
        return cls(shard_id, process, sock, request_timeout)

    @property
    def pid(self) -> Optional[int]:
        try:
            return self._process.pid
        except ValueError:  # process handle already closed
            return None

    @property
    def alive(self) -> bool:
        """Whether the worker process itself is still running."""
        try:
            return self._process.is_alive()
        except ValueError:  # process handle already closed
            return False

    @property
    def serving(self) -> bool:
        """Whether the handle can still carry requests."""
        return not (self._dead or self._closed) and self.alive

    def shutdown(self, timeout: float = 5.0) -> None:
        """Gracefully stop the worker; safe to call any number of times."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._dead and self.alive and self._sock is not None:
                try:
                    self._round_trip(rpc.OP_SHUTDOWN, b"", timeout=timeout)
                except WorkerError:
                    pass  # already gone — reap below
            self._teardown()

    def kill(self) -> None:
        """Hard-kill the worker process (fault injection / last resort)."""
        with self._lock:
            self._dead = True
            self._teardown()

    def inject_crash(self) -> None:
        """Make the worker exit mid-request without replying (test hook)."""
        with self._lock:
            if self._sock is None:
                return
            try:
                rpc.send_frame(self._sock,
                               rpc.encode_request(self._next_id(),
                                                  rpc.OP_CRASH))
            except WorkerError:
                pass
            self._process.join(timeout=5.0)

    def _teardown(self) -> None:
        sock, self._sock = self._sock, None
        _reap(self._process, sock)
        self._finalizer.detach()

    # -- round trips ---------------------------------------------------

    def _next_id(self) -> int:
        self._request_id += 1
        return self._request_id

    def _round_trip(self, opcode: int, payload: bytes,
                    timeout: Optional[float] = None) -> bytes:
        with self._lock:
            if self._closed or self._dead or self._sock is None:
                raise WorkerCrashed(
                    f"worker for shard {self.shard_id} is not serving")
            request_id = self._next_id()
            sock = self._sock
            if timeout is not None:
                sock.settimeout(timeout)
            try:
                rpc.send_frame(sock,
                               rpc.encode_request(request_id, opcode,
                                                  payload))
                body = rpc.recv_frame(sock)
                result = rpc.decode_response(body, request_id)
            except WorkerError:
                # Transport failure or desync: this connection cannot be
                # trusted for another lockstep exchange.  Mark dead and
                # reap so the federation falls back in-process.
                self._dead = True
                self._teardown()
                raise
            finally:
                if timeout is not None and self._sock is not None:
                    self._sock.settimeout(self._request_timeout)
            self.round_trips += 1
            return result

    # -- operations ----------------------------------------------------

    def _call(self, opcode: int, *args: Any,
              timeout: Optional[float] = None) -> Any:
        """One typed round trip: ``args`` out and the result back through
        the opcode's :data:`rpc.CALLS <repro.sharding.rpc.CALLS>` layouts."""
        body = self._round_trip(opcode, rpc.encode_args(opcode, args),
                                timeout=timeout)
        return rpc.decode_result(opcode, body)

    def ping(self, timeout: float = DEFAULT_PING_TIMEOUT,
             delay: float = 0.0) -> int:
        """Health check; returns the worker's pid.

        ``delay`` makes the worker sleep before answering — the knob the
        health-check-expiry tests use to force a deadline miss.
        """
        return self._call(rpc.OP_PING, delay, timeout=timeout)

    def load_shard(self, index: DeltaGraph, store,
                   cache_conf: Optional[int]) -> None:
        """Ship a sealed shard's index + store to the worker."""
        self._call(rpc.OP_LOAD_SHARD,
                   (index.detach_state(), *export_store(store), cache_conf))
        self.mark_io_baseline()

    def build_era(self, events: Sequence[Event],
                  initial_graph: Optional[GraphSnapshot],
                  start_time: Optional[int], store_spec: tuple,
                  store_payload, index_kwargs: Dict,
                  cache_conf: Optional[int]
                  ) -> Tuple[Dict, tuple, object]:
        """Build one era in the worker; returns the adoption parts.

        ``(detached index state, store spec, store payload)`` — the router
        reopens/unpacks the store on its side and reattaches the state as
        its in-process fallback copy.
        """
        built = self._call(
            rpc.OP_BUILD_ERA,
            (store_spec, store_payload, index_kwargs, cache_conf, start_time),
            initial_graph, events)
        self.mark_io_baseline()
        return built

    def get_snapshot(self, time: int,
                     components: Optional[Sequence[str]] = None,
                     partitions: Optional[Sequence[int]] = None
                     ) -> GraphSnapshot:
        return self._call(rpc.OP_GET_SNAPSHOT, time, components, partitions)

    def get_snapshots(self, times: Sequence[int],
                      components: Optional[Sequence[str]] = None,
                      partitions: Optional[Sequence[int]] = None
                      ) -> List[GraphSnapshot]:
        return self._call(rpc.OP_GET_SNAPSHOTS, times, components,
                          partitions)

    def get_interval_graph(self, start: int, end: int,
                           components: Optional[Sequence[str]] = None,
                           include_transient: bool = True,
                           into: Optional[GraphSnapshot] = None
                           ) -> GraphSnapshot:
        return self._call(rpc.OP_GET_INTERVAL, start, end, components,
                          include_transient, into)

    def replay_state(self, components: Optional[Sequence[str]] = None
                     ) -> Tuple[List, List[Event]]:
        return self._call(rpc.OP_REPLAY_STATE, components)

    def fetch_eventlist(self, eventlist_id: str,
                        components: Optional[Sequence[str]] = None
                        ) -> List[Event]:
        return self._call(rpc.OP_FETCH_EVENTLIST, eventlist_id, components)

    def stats_report(self, timeout: Optional[float] = None) -> Dict:
        """The worker-side counter report (pid, ops, ingest/io/cache)."""
        return self._call(rpc.OP_STATS, timeout=timeout)

    # -- I/O accounting ------------------------------------------------

    def mark_io_baseline(self) -> None:
        """Snapshot worker-side I/O counters as the accounting baseline."""
        try:
            report = self.stats_report()
        except WorkerError:
            return
        io = report.get("io")
        self._io_baseline = IOStats(**io) if io is not None else None

    def io_delta(self, report: Optional[Dict] = None) -> Optional[IOStats]:
        """Worker-side I/O since the baseline (``None`` if uninstrumented).

        Pass an already-fetched ``stats_report()`` to avoid a second round
        trip.
        """
        if report is None:
            report = self.stats_report()
        io = report.get("io")
        if io is None:
            return None
        current = IOStats(**io)
        if self._io_baseline is None:
            return current
        return current - self._io_baseline

    def describe(self) -> str:
        state = ("serving" if self.serving
                 else "closed" if self._closed else "dead")
        return (f"ShardWorker(#{self.shard_id} pid={self.pid} {state}, "
                f"{self.round_trips} round trips)")
