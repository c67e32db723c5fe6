"""The four system stacks the workloads run against, built through the
public API only, and the entry adapters that give them one calling shape.

Every read at every entry layer asks for all components: the defaults
differ between layers (``DeltaGraph.get_snapshot`` returns everything,
``ServiceClient.get_snapshot("")`` structure only), and a ladder that
mixed them would report a negative service tax.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Sequence

from repro.core.events import Event
from repro.query.attr_options import parse_attr_options
from repro.query.managers import GraphManager, HistoryManager
from repro.scan.operators import DegreeOperator, DensityOperator
from repro.service import ServiceClient
from repro.sharding import EventCountPolicy
from repro.storage import DiskKVStore

from bench_inputs import Inputs, fingerprint

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ALL_ATTRS = "+node:all+edge:all"
ALL_FILTER = parse_attr_options(ALL_ATTRS)

MIB = 1 << 20
#: Per-workload stack description.  Cache sizes against the ~2.5 MB of
#: decoded deltas the full-size workloads keep resident when nothing is
#: evicted: off, fits, fits, smaller than the working set.
STACKS = {
    "point_cold": dict(entry="service", sharded=True, workers="subprocess",
                       cache_bytes=0),
    "session_warm": dict(entry="pool", sharded=False, workers=None,
                         cache_bytes=256 * MIB),
    "evolution_scan": dict(entry="history", sharded=True, workers="inprocess",
                           cache_bytes=32 * MIB),
    "live_mixed": dict(entry="service", sharded=True, workers="inprocess",
                       cache_bytes=1 * MIB),
}
WARMUP_OPS = 20


def build_history(events: Sequence[Event], workdir: str, leaf: int,
                  era_events: int, sharded: bool, workers: Optional[str],
                  cache_bytes: int, store_wrapper=None, cache=None,
                  codec=None) -> HistoryManager:
    """Build an index over ``events`` in ``workdir`` behind a HistoryManager.

    ``store_wrapper``/``cache``/``codec`` are the tracing seams: a callable
    wrapping each new store, a ready cache instance, and a codec instance
    installed in place of the ``"packed"`` name.
    """
    os.makedirs(workdir, exist_ok=True)
    kwargs = dict(leaf_eventlist_size=leaf, arity=4,
                  differential_functions=("intersection",),
                  codec=codec if codec is not None else "packed")
    if cache is not None:
        kwargs["cache"] = cache
    elif cache_bytes:
        kwargs["cache_max_bytes"] = cache_bytes

    def open_store(name: str):
        store = DiskKVStore(os.path.join(workdir, name + ".log"))
        return store_wrapper(store, name) if store_wrapper else store

    if not sharded:
        return HistoryManager.build_index(events, store=open_store("index"),
                                          **kwargs)
    return HistoryManager.build_index(
        events, shard_policy=EventCountPolicy(era_events),
        shard_store_factory=lambda shard_id: open_store(f"era{shard_id}"),
        shard_worker_mode=workers, **kwargs)


def stored_bytes(workdir: str) -> int:
    """Bytes of every store log under ``workdir`` (garbage included)."""
    return sum(os.path.getsize(os.path.join(workdir, name))
               for name in os.listdir(workdir) if name.endswith(".log"))


# ----------------------------------------------------------------------
# entry adapters: one calling shape over three public entry layers
# ----------------------------------------------------------------------

class HistoryEntry:
    """Enters at :class:`HistoryManager` (in-process)."""

    def __init__(self, history: HistoryManager) -> None:
        self.history = history

    def point(self, time):
        return self.history.retrieve(time, ALL_FILTER)

    def multi(self, times):
        return self.history.retrieve_many(list(times), ALL_FILTER)

    def interval(self, span):
        return self.history.retrieve_interval(span[0], span[1], ALL_FILTER)

    def scan(self, times):
        return self.history.scanner().run(
            [DegreeOperator(), DensityOperator()], list(times))

    def ingest(self, events):
        return self.history.ingest(events)

    def observe(self, kind, result):
        """The result reduced to what the oracle compares (untimed)."""
        if kind in "PI":
            return fingerprint(result.items())
        if kind == "M":
            return tuple(fingerprint(s.items()) for s in result)
        if kind == "S":
            return ("series", tuple(zip(
                result["density"].values,
                (fingerprint(histogram.items())
                 for histogram in result["degree_distribution"].values))))
        return result

    def release(self, kind, result) -> None:
        """Give back what ``result`` holds (timed; only the pool holds any)."""

    def cache_stats(self):
        return self.history.cache_stats()

    def close(self) -> None:
        self.history.close()
        close_stores(self.history.index)


def index_stores(index) -> List:
    shards = getattr(index, "shards", None)
    return [s.store for s in shards] if shards is not None else [index.store]


def close_stores(index) -> None:
    for store in index_stores(index):
        store.close()


class PoolEntry(HistoryEntry):
    """Enters at :class:`GraphManager`: every snapshot lands in the GraphPool."""

    CLEANUP_EVERY = 20

    def __init__(self, manager: GraphManager) -> None:
        super().__init__(manager.history)
        self.manager = manager
        self._released = 0
        self.cleanup_ns: List[int] = []

    def point(self, time):
        return self.manager.get_hist_graph(time, ALL_ATTRS)

    def multi(self, times):
        return self.manager.get_hist_graphs(list(times), ALL_ATTRS)

    def interval(self, span):
        return self.manager.get_hist_graph_interval(span[0], span[1],
                                                    ALL_ATTRS)

    def scan(self, times):
        return self.manager.scanner().run(
            [DegreeOperator(), DensityOperator()], list(times))

    def ingest(self, events):
        return self.manager.ingest(events)

    def observe(self, kind, result):
        pool = self.manager.pool
        if kind in "PI":
            return fingerprint(pool.graph_elements(result.graph_id))
        if kind == "M":
            return tuple(fingerprint(pool.graph_elements(view.graph_id))
                         for view in result)
        return super().observe(kind, result)

    def release(self, kind, result) -> None:
        if kind not in "PMI":
            return
        views = [result] if kind in "PI" else list(result)
        # Newest first: a later view may depend on an earlier one.
        for view in reversed(views):
            self.manager.release(view)
        self._released += 1
        if self._released % self.CLEANUP_EVERY == 0:
            start = time.perf_counter_ns()
            self.manager.cleanup()
            self.cleanup_ns.append(time.perf_counter_ns() - start)


class ServiceEntry:
    """Enters at :class:`ServiceClient`, one connection to a server process."""

    def __init__(self, client: ServiceClient) -> None:
        self.client = client

    def point(self, time):
        return self.client.get_snapshot(time, ALL_ATTRS)

    def multi(self, times):
        return self.client.get_snapshots(times, ALL_ATTRS)

    def interval(self, span):
        return self.client.get_interval(span[0], span[1], ALL_ATTRS)

    def scan(self, times):
        return self.client.scan(times)

    def ingest(self, events):
        return self.client.ingest(events)

    def observe(self, kind, result):
        if kind in "PI":
            return fingerprint(result.items())
        if kind in "MS":
            return tuple(fingerprint(s.items()) for s in result)
        return result

    def release(self, kind, result) -> None:
        pass


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------

class Stack:
    """A built system plus what is needed to tear it down."""

    def __init__(self, entry, workdir: str, server=None) -> None:
        self.entry = entry
        self.workdir = workdir
        self.server = server

    def server_stats(self) -> Optional[Dict]:
        """The server's ``stats_report()`` (service stacks only)."""
        if self.server is None:
            return None
        return self.entry.client.stats()

    def flush(self) -> None:
        """Push buffered store writes to the files ``stored_bytes`` sizes.

        A server's stores are out of reach; its unflushed tail is at most
        one I/O buffer.
        """
        if self.server is None:
            for store in index_stores(self.entry.history.index):
                store.flush()

    def close(self) -> None:
        if self.server is not None:
            try:
                self.entry.client.close()
            finally:
                stop_server(self.server)
        else:
            self.entry.close()


def start_server(events_file: str, workdir: str, leaf: int, era_events: int,
                 workers: str, cache_bytes: int):
    """Launch ``serve.py``; returns ``(process, (host, port))`` once it
    accepts connections."""
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "serve.py"),
         "--events-file", events_file, "--workdir", workdir,
         "--leaf", str(leaf), "--era-events", str(era_events),
         "--workers", workers, "--cache-bytes", str(cache_bytes)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)         # own group: see stop_server
    line = process.stdout.readline()
    if not line.startswith("SERVING "):
        stop_server(process)
        raise RuntimeError(f"server did not come up: {line!r}")
    _tag, host, port = line.split()
    return process, (host, int(port))


def stop_server(process: subprocess.Popen) -> None:
    """Ask the server to stop and wait until it and its workers have ended.

    ``serve.py`` stops on stdin EOF and reaps its own children before it
    exits.  If it does not, its whole process group is killed, workers and
    resource tracker included.
    """
    try:
        process.stdin.close()
        process.wait(timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        process.kill()
        process.wait()
        # Its orphans are init's to reap: kill them until none is left.
        for _ in range(200):
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    finally:
        process.stdout.close()


def reap_children() -> None:
    """Stop and wait for every child this process still has.

    Shard workers are started with ``spawn``, which also starts a
    ``multiprocessing`` resource tracker: a helper process that outlives
    its parent unless the parent stops it.  Call last, after the workers
    are shut down (they hold the tracker's pipe open).
    """
    for child in multiprocessing.active_children():     # joins the dead
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()          # close pipe, waitpid


def write_events(events: Sequence[Event], path: str) -> str:
    with open(path, "wb") as handle:
        pickle.dump(list(events), handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def local_stack(inputs: Inputs, workdir: str, sharded: bool,
                workers: Optional[str], cache_bytes: int, pooled: bool = False,
                entry_types=None, **seams) -> Stack:
    """An in-process stack over the prefix, entered at ``HistoryManager`` or,
    ``pooled``, at ``GraphManager``.  ``entry_types`` substitutes the
    (history, pool) adapter classes; ``seams`` reach :func:`build_history`."""
    history_entry, pool_entry = entry_types or (HistoryEntry, PoolEntry)
    history = build_history(inputs.prefix, workdir, inputs.size["leaf"],
                            inputs.era_events, sharded, workers, cache_bytes,
                            **seams)
    entry = (pool_entry(GraphManager(history.index)) if pooled
             else history_entry(history))
    return Stack(entry, workdir)


def build_stack(workload: str, inputs: Inputs, workdir: str) -> Stack:
    """Build ``workload``'s stack over the prefix: the server's input file,
    the index build, worker and server start, the client connection."""
    conf = STACKS[workload]
    if conf["entry"] != "service":
        return local_stack(inputs, workdir, conf["sharded"], conf["workers"],
                           conf["cache_bytes"], conf["entry"] == "pool")
    os.makedirs(workdir, exist_ok=True)
    events_file = write_events(inputs.prefix,
                               os.path.join(workdir, "prefix.pickle"))
    server, address = start_server(
        events_file, workdir, inputs.size["leaf"], inputs.era_events,
        conf["workers"], conf["cache_bytes"])
    try:
        entry = ServiceEntry(ServiceClient(*address, timeout=120))
    except BaseException:
        stop_server(server)
        raise
    return Stack(entry, workdir, server)


def warm_up(workload: str, entry, inputs: Inputs, warm_ops) -> None:
    """The untimed first ops; for ``session_warm`` also one pass over every
    pooled read, so the cache starts the timed phase full."""
    for op in warm_ops:
        entry.release(op.kind, call_op(entry, op, inputs))
    if workload == "session_warm":
        for time_ in sorted(set(inputs.point_times) | set(inputs.hot_times)):
            entry.release("P", entry.point(time_))
        for times in inputs.scan_windows:
            entry.scan(times)
        for span in inputs.intervals:
            entry.release("I", entry.interval(span))


class Record:
    """One executed op: its busy time, what it returned (or raised), and the
    probe epoch it ran in (see :class:`QuietProbe`)."""

    __slots__ = ("op", "ns", "observed", "error", "epoch")

    def __init__(self, op, ns, observed, error=None, epoch=0):
        self.op, self.ns, self.observed = op, ns, observed
        self.error, self.epoch = error, epoch


class QuietProbe:
    """A fixed piece of memory-bound work, timed between op cycles.

    The machine this runs on is a slice of a shared host, and what its
    neighbours do to the shared cache and memory slows dictionary-heavy
    Python by 10-50 % for seconds to a minute at a time.  The probe does
    the same kind of work as the program (random reads in a table too
    large for a core's own cache) but always the same amount, so its time
    says how quiet the machine was, whatever the ops in between cost.
    ``samples[e]`` and ``samples[e + 1]`` bracket epoch ``e``.
    """

    SLOTS = 2 << 20             # 16 MiB of 8-byte slots, in one buffer
    READS = 30_000
    EVERY_NS = 250_000_000      # at the first cycle boundary after this long

    def __init__(self, cycle: int) -> None:
        rng = random.Random(0)
        self.cycle = cycle
        self.samples: List[int] = []
        # A mapping of its own, every page written: the same resident
        # memory in every run, whatever state the allocator is in.
        self._map = mmap.mmap(-1, 8 * self.SLOTS)
        page = bytes(1 << 20)
        for offset in range(0, len(self._map), len(page)):
            self._map[offset:offset + len(page)] = page
        self._table = memoryview(self._map).cast("q")
        self._reads = [rng.randrange(self.SLOTS) for _ in range(self.READS)]

    def sample(self) -> None:
        table, total = self._table, 0
        start = time.perf_counter_ns()
        for slot in self._reads:
            total += table[slot]
        self.samples.append(time.perf_counter_ns() - start)

    def quiet_epochs(self, epochs, tolerance: float = 0.20) -> set:
        """Those of ``epochs`` whose two probes both ran within ``tolerance``
        of the quiet level (the 10th percentile of their scores), and never
        fewer than the quietest quarter of them."""
        score = {e: max(self.samples[e], self.samples[e + 1]) for e in epochs}
        ranked = sorted(score, key=score.__getitem__)
        level = score[ranked[len(ranked) // 10]]
        quiet = {e for e in ranked if score[e] <= level * (1 + tolerance)}
        return quiet | set(ranked[:max(len(ranked) // 4, 1)])


def measure(entry, ops, inputs: Inputs, seconds: float, tracer=None,
            probe: Optional[QuietProbe] = None):
    """Closed loop, one client: run ``ops`` for ``seconds`` of wall time.

    An op's time is the call plus giving its result back (the pool's
    ``release``/``cleanup``); reducing the result to a fingerprint sits
    between the two and is not timed.  An op that raises is recorded as
    failed and the loop goes on.  ``tracer`` gets a root span per op;
    ``probe`` is sampled between op cycles and numbers the records' epochs.
    """
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    records = []
    errors = 0
    epoch = 0
    if probe is not None:
        probe.sample()
        probed = clock()
    for position, op in enumerate(ops):
        if clock() >= deadline:
            break
        if (probe is not None and position % probe.cycle == 0
                and clock() - probed >= probe.EVERY_NS):
            probe.sample()
            probed = clock()
            epoch += 1
        if tracer is not None:
            tracer.start_op(op)
        start = clock()
        try:
            result = call_op(entry, op, inputs)
            called = clock()
            observed = entry.observe(op.kind, result)
            resumed = clock()
            entry.release(op.kind, result)
            ns = (called - start) + (clock() - resumed)
            records.append(Record(op, ns, observed, None, epoch))
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            records.append(Record(op, clock() - start, None, exc, epoch))
            errors += 1
            if errors <= 3:
                traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end_op()
    if probe is not None:
        probe.sample()
    return records


def call_op(entry, op, inputs: Inputs):
    kind = op.kind
    if kind == "P":
        return entry.point(op.arg)
    if kind == "M":
        return entry.multi(op.arg)
    if kind == "I":
        return entry.interval(op.arg)
    if kind == "S":
        return entry.scan(op.arg)
    lo, hi = op.arg
    return entry.ingest(inputs.events[lo:hi])
