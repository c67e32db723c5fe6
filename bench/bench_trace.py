"""Per-layer measurement, taken from outside the program.

Four sources, all in this directory's own files:

* a **layer ladder** — the same singlepoint queries entered at successive
  public entry points; a layer's tax is the difference of adjacent rungs'
  medians;
* **span-recording wrappers** injected through constructor seams the
  program already has (``store=``, a ``Codec`` instance, a ``DeltaCache``
  instance) on an in-process replica of the workload's stack;
* **standalone calls** of public functions on captured inputs
  (``plan_singlepoint``, the wire protocol's encode/decode);
* the program's **own counters**, read before and after.

Spans are ``{trace_id, span_id, parent_id, name, start_ns, end_ns,
counts}``, kept in memory and written as JSON lines when the run ends.  A
layer's self time is its span minus its children.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List

from repro.cache import DeltaCache
from repro.core.snapshot import COUNTERS
from repro.scan.operators import DegreeOperator, DensityOperator, ScanOperator
from repro.service.protocol import (
    SnapshotResult,
    decode_response,
    decode_snapshot,
    encode_response,
    encode_snapshot,
)
from repro.storage.compression import Codec
from repro.storage.kvstore import KVStore
from repro.storage.packed import PackedCodec

from bench_inputs import Inputs
from bench_stacks import (
    ALL_ATTRS,
    ALL_FILTER,
    STACKS,
    HistoryEntry,
    PoolEntry,
    Stack,
    build_stack,
    local_stack,
    measure,
    stored_bytes,
    warm_up,
)

#: Per-layer metrics: name -> unit.  A metric of a layer the workload's
#: stack does not have reads 0.
PER_LAYER = {
    "storage.decode_ms": "ms",
    "storage.read_ms": "ms",
    "storage.gets_per_query": "count",
    "storage.bytes_read_per_query": "bytes",
    "storage.encode_ms": "ms",
    "storage.put_ms": "ms",
    "storage.bytes_written_per_event": "bytes",
    "storage.file_bytes": "bytes",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "cache.lookup_ms": "ms",
    "cache.bytes_resident": "bytes",
    "core.plan_ms": "ms",
    "core.plan_deltas_per_query": "count",
    "core.apply_ms": "ms",
    "core.entries_written_per_query": "count",
    "core.get_snapshot_ms": "ms",
    "core.append_ms_per_event": "ms",
    "core.seal_ms": "ms",
    "core.keys_written_per_seal": "count",
    "core.refinalizes": "count",
    "query.tax_ms": "ms",
    "graphpool.overlay_ms": "ms",
    "graphpool.cleanup_ms": "ms",
    "graphpool.union_entries": "count",
    "sharding.route_ms": "ms",
    "sharding.foreign_shard_reads": "count",
    "sharding.worker_rpc_ms": "ms",
    "sharding.worker_bytes_per_query": "bytes",
    "sharding.fallbacks": "count",
    "sharding.rollovers": "count",
    "sharding.rollover_ms": "ms",
    "scan.seed_ms": "ms",
    "scan.step_ms": "ms",
    "scan.gets_per_step": "count",
    "scan.events_applied_per_step": "count",
    "scan.shards_entered": "count",
    "service.roundtrip_tax_ms": "ms",
    "service.ping_ms": "ms",
    "service.encode_ms": "ms",
    "service.decode_ms": "ms",
    "service.response_bytes_per_query": "bytes",
    "service.rejected": "count",
    "trace.overhead_pct": "%",
}

#: Shares of ``--seconds``: the ladder, then the op loop on the real stack,
#: on the plain in-process replica and on the traced replica.
LADDER_SHARE, LOOP_SHARE = 0.4, 0.2

_clock = time.perf_counter_ns


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.

    One op is in flight at a time (closed loop, one client), so a span
    opened on a thread with no open span of its own — a fan-out worker —
    hangs under the current op's root.
    """

    def __init__(self, probe) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._trace_id = 0
        self._root = None
        self._probe = probe
        self._before: Dict[str, int] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def start(self, name: str, counts=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][1]
        else:
            parent = self._root[1] if self._root is not None else 0
        span = [self._trace_id, next(self._ids), parent, name, _clock(), 0,
                counts if counts is not None else {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = _clock()
        self._stack().pop()
        self.spans.append(span)

    def start_op(self, op) -> None:
        """Open the root span of one client op; samples the counters."""
        self._trace_id += 1
        self._before = self._probe()
        self._root = self.start("op." + op.kind)

    def end_op(self) -> None:
        root = self._root
        self.end(root)
        self._root = None
        after = self._probe()
        root[6].update({key: after[key] - self._before[key] for key in after})

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span under the current op (no op: dropped)."""
        if self._root is not None:
            self.spans.append([self._trace_id, next(self._ids), self._root[1],
                               name, start_ns, end_ns, {}])

    def annotate_op(self, **counts) -> None:
        if self._root is not None:              # no op is open during warm-up
            self._root[6].update(counts)

    def write(self, path: str) -> None:
        keys = ("trace_id", "span_id", "parent_id", "name", "start_ns",
                "end_ns", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class TracedCodec(Codec):
    """Codec seam: spans around encode and decode, with payload bytes."""

    def __init__(self, inner: Codec, tracer: Tracer) -> None:
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "tracer", tracer)

    def encode(self, value: object) -> bytes:
        span = self.tracer.start("storage.encode")
        try:
            payload = self.inner.encode(value)
            span[6]["bytes"] = len(payload)
            return payload
        finally:
            self.tracer.end(span)

    def decode(self, payload: bytes) -> object:
        span = self.tracer.start("storage.decode", {"bytes": len(payload)})
        try:
            return self.inner.decode(payload)
        finally:
            self.tracer.end(span)


class TracedStore(KVStore):
    """Store seam: spans around reads and writes, labelled with the shard."""

    def __init__(self, inner: KVStore, label: str, tracer: Tracer) -> None:
        self.inner = inner
        self.label = label
        self.tracer = tracer

    def _spanned(self, name: str, keys: int, call, *args):
        span = self.tracer.start(name, {"keys": keys, "store": self.label})
        try:
            return call(*args)
        finally:
            self.tracer.end(span)

    def get(self, key):
        return self._spanned("storage.get", 1, self.inner.get, key)

    def get_many(self, keys):
        keys = list(keys)
        return iter(self._spanned("storage.get", len(keys),
                                  lambda: list(self.inner.get_many(keys))))

    def get_many_or_default(self, keys, default=None):
        keys = list(keys)
        return self._spanned("storage.get", len(keys),
                             self.inner.get_many_or_default, keys, default)

    def put(self, key, value) -> None:
        self._spanned("storage.put", 1, self.inner.put, key, value)

    def put_many(self, items) -> None:
        items = list(items)
        self._spanned("storage.put", len(items), self.inner.put_many, items)

    def delete(self, key) -> None:
        self.inner.delete(key)

    def keys(self):
        return self.inner.keys()

    def close(self) -> None:
        self.inner.close()

    def flush(self) -> None:
        self.inner.flush()

    def set_codec(self, codec) -> bool:
        return self.inner.set_codec(codec)


class TracedCache(DeltaCache):
    """Cache seam: a span per lookup and per insertion."""

    def __init__(self, max_bytes: int, tracer: Tracer) -> None:
        super().__init__(max_bytes=max_bytes)
        self.tracer = tracer

    def lookup(self, key):
        span = self.tracer.start("cache.lookup")
        try:
            return super().lookup(key)
        finally:
            self.tracer.end(span)

    def put(self, key, value, size=None, group=None):
        span = self.tracer.start("cache.put")
        try:
            return super().put(key, value, size=size, group=group)
        finally:
            self.tracer.end(span)


class _StepClock(ScanOperator):
    """Operator seam: notes when the seed is ready and when each step ends."""

    name = "bench_step_clock"

    def __init__(self) -> None:
        self.marks: List[int] = []

    def init(self, graph, time_) -> None:
        self.marks.append(_clock())

    def emit(self, time_, graph) -> int:
        self.marks.append(_clock())
        return 0


class _TracedScans:
    """The entry's own scan plus a clock operator: the same work as the
    untraced scan, split into a seed span and one span per step."""

    def scan(self, times):
        started = _clock()
        scanner = self.history.scanner()
        clock = _StepClock()
        scanner.run([DegreeOperator(), DensityOperator(), clock], list(times))
        seeded, first_emit, *later = clock.marks
        self.tracer.record("scan.seed", started, seeded)
        for begin, end in zip([first_emit] + later, later):
            self.tracer.record("scan.step", begin, end)
        self.tracer.annotate_op(
            events_applied=scanner.stats.events_applied,
            shards_entered=scanner.stats.shards_entered)

    def observe(self, kind, result):
        return None if kind == "S" else super().observe(kind, result)


class TracedHistoryEntry(_TracedScans, HistoryEntry):
    tracer: Tracer


class TracedPoolEntry(_TracedScans, PoolEntry):
    tracer: Tracer


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def _replica(workload: str, inputs: Inputs, workdir: str, warm_ops,
             tracer: Tracer = None) -> Stack:
    """The workload's stack below the wire, in this process, warmed up.

    Worker processes cannot carry the wrappers (they open their own stores),
    so the replica of a subprocess-worker stack is the in-process federation
    over the same eras; the ladder measures what the workers add.
    """
    conf = STACKS[workload]
    seams = {}
    if tracer is not None:
        seams = dict(
            entry_types=(TracedHistoryEntry, TracedPoolEntry),
            store_wrapper=lambda store, name: TracedStore(store, name, tracer),
            codec=TracedCodec(PackedCodec(), tracer),
            cache=(TracedCache(conf["cache_bytes"], tracer)
                   if conf["cache_bytes"] else None))
    stack = local_stack(inputs, workdir, conf["sharded"],
                        "inprocess" if conf["sharded"] else None,
                        conf["cache_bytes"], conf["entry"] == "pool", **seams)
    if tracer is not None:
        stack.entry.tracer = tracer
    try:
        warm_up(workload, stack.entry, inputs, warm_ops)
    except BaseException:
        stack.close()
        raise
    return stack


def _median(samples) -> float:
    """Median, or 0 for an op kind the (short) traced loop never reached."""
    return statistics.median(samples) if samples else 0.0


def _median_ms(samples_ns) -> float:
    return _median(samples_ns) / 1e6


def _ladder(rungs, times, seconds: float) -> Dict[str, float]:
    """Median latency per rung; rungs take turns on each timepoint."""
    samples = {name: [] for name, _call in rungs}
    for time_ in times:                       # untimed pass: caches, lazy tops
        for _name, call in rungs:
            call(time_)
    deadline = _clock() + int(seconds * 1e9)
    while True:
        for time_ in times:
            for name, call in rungs:
                start = _clock()
                call(time_)
                samples[name].append(_clock() - start)
        if _clock() >= deadline:
            break
    return {name: _median_ms(values) for name, values in samples.items()}


def run_traced(workload: str, inputs: Inputs, warm_ops, timed_ops,
               seconds: float, tmp: str, out_dir: str):
    """The ``--trace 1`` run: returns (records, per-layer metrics)."""
    conf = STACKS[workload]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    stacks: List[Stack] = []

    def probe() -> Dict[str, int]:
        index = traced.entry.history.index
        stats = index.ingest_stats
        return {"entries": COUNTERS.mutations(),
                "leaves_sealed": stats.leaves_sealed,
                "keys_written": stats.store_keys_written,
                "refinalizes": stats.refinalizes,
                "shards": len(getattr(index, "shards", ()))}

    tracer = Tracer(probe)
    try:
        real = build_stack(workload, inputs, os.path.join(tmp, "real"))
        stacks.append(real)
        warm_up(workload, real.entry, inputs, warm_ops)
        if real.server is not None:
            plain = _replica(workload, inputs, os.path.join(tmp, "plain"),
                             warm_ops)
            stacks.append(plain)
        else:
            plain = real
        traced = _replica(workload, inputs, os.path.join(tmp, "traced"),
                          warm_ops, tracer)
        stacks.append(traced)
        tracer.spans.clear()                   # drop build and warm-up spans

        # -- the ladder ------------------------------------------------
        if conf["sharded"]:
            flat = local_stack(inputs, os.path.join(tmp, "flat"), False, None,
                               conf["cache_bytes"])
            stacks.append(flat)
        else:
            flat = plain
        flat_history = flat.entry.history
        rungs = [("core", flat_history.index.get_snapshot),
                 ("query", lambda t: flat_history.retrieve(t, ALL_FILTER))]
        if conf["entry"] == "pool":
            entry = plain.entry
            rungs.append(("graphpool",
                          lambda t: entry.release("P", entry.point(t))))
        if conf["sharded"]:
            rungs.append(("sharding", plain.entry.point))
        workers = None
        if conf["workers"] == "subprocess":
            workers = local_stack(inputs, os.path.join(tmp, "workers"), True,
                                  "subprocess", conf["cache_bytes"])
            stacks.append(workers)
            rungs.append(("workers", workers.entry.point))
        if real.server is not None:
            rungs.append(("service", real.entry.point))
        times = inputs.point_times[::2]         # every other slice of history
        gc.collect()
        gc.freeze()
        client = real.entry.client if real.server is not None else None
        received = client.bytes_received if client else 0
        requests = client.requests_sent if client else 0
        medians = _ladder(rungs, times, seconds * LADDER_SHARE)
        below = None
        for name, _call in rungs:
            if below is None:
                metrics["core.get_snapshot_ms"] = medians[name]
            else:
                metrics[_TAX[name]] = medians[name] - medians[below]
            below = name
        if client is not None:
            metrics["service.response_bytes_per_query"] = (
                (client.bytes_received - received)
                / (client.requests_sent - requests))

        # -- standalone calls on captured inputs -----------------------
        plan_ns, plan_deltas = [], []
        for time_ in times:
            start = _clock()
            plan = flat_history.index.plan_singlepoint(time_)
            plan_ns.append(_clock() - start)
            plan_deltas.append(len(plan.delta_ids()))
        metrics["core.plan_ms"] = _median_ms(plan_ns)
        metrics["core.plan_deltas_per_query"] = _median(plan_deltas)
        if workers is not None:
            metrics["sharding.worker_bytes_per_query"] = statistics.median(
                len(encode_snapshot(workers.entry.point(t)))
                for t in times[::3])
        if client is not None:
            _wire_costs(client, times[::3], metrics)

        # -- the op loop: real stack, plain replica, traced replica -----
        loop_seconds = seconds * LOOP_SHARE
        records = measure(real.entry, timed_ops, inputs, loop_seconds)
        plain_records = (records if plain is real else
                         measure(plain.entry, timed_ops, inputs, loop_seconds))
        cache_before = traced.entry.cache_stats()
        traced_records = measure(traced.entry, timed_ops, inputs,
                                 loop_seconds, tracer)
        gc.unfreeze()
        common = min(len(plain_records), len(traced_records))
        plain_ns = sum(r.ns for r in plain_records[:common])
        traced_ns = sum(r.ns for r in traced_records[:common])
        metrics["trace.overhead_pct"] = (traced_ns / plain_ns - 1.0) * 100.0

        _span_metrics(tracer, traced_records, traced.entry.history.index,
                      metrics)
        cache_after = traced.entry.cache_stats()
        if cache_after is not None:
            delta = cache_after - cache_before
            metrics["cache.hit_rate"] = delta.hit_rate
            metrics["cache.evictions"] = delta.evictions
            metrics["cache.bytes_resident"] = cache_after.current_bytes
        traced.flush()
        metrics["storage.file_bytes"] = stored_bytes(traced.workdir)
        if conf["entry"] == "pool":
            metrics["graphpool.cleanup_ms"] = _median_ms(
                traced.entry.cleanup_ns)
            metrics["graphpool.union_entries"] = (
                traced.entry.manager.pool.union_entry_count())
        report = real.server_stats()
        if report is not None:
            metrics["service.rejected"] = report["service"]["requests_rejected"]
            metrics["sharding.fallbacks"] = (
                report["totals"].get("workers", {}).get("fallbacks", 0))
    finally:
        for stack in reversed(stacks):
            stack.close()
    tracer.write(os.path.join(
        out_dir, f"spans-{workload}-seed{inputs.seed}.jsonl"))
    return records, metrics


#: Ladder rung -> the metric holding its tax over the rung below.
_TAX = {"query": "query.tax_ms", "graphpool": "graphpool.overlay_ms",
        "sharding": "sharding.route_ms", "workers": "sharding.worker_rpc_ms",
        "service": "service.roundtrip_tax_ms"}


def _wire_costs(client, times, metrics) -> None:
    """Empty round trip, and the wire codec alone on captured responses."""
    ping_ns = []
    for _ in range(50):
        start = _clock()
        client.ping()
        ping_ns.append(_clock() - start)
    metrics["service.ping_ms"] = _median_ms(ping_ns)
    encode_ns, decode_ns = [], []
    for time_ in times:
        snapshot = client.get_snapshot(time_, ALL_ATTRS)
        start = _clock()
        body = encode_response(1, [SnapshotResult(time_,
                                                  encode_snapshot(snapshot))])
        encoded = _clock()
        _request_id, results = decode_response(body)
        decode_snapshot(results[0].payload, time_)
        decode_ns.append(_clock() - encoded)
        encode_ns.append(encoded - start)
    metrics["service.encode_ms"] = _median_ms(encode_ns)
    metrics["service.decode_ms"] = _median_ms(decode_ns)


def _span_metrics(tracer: Tracer, records, index, metrics) -> None:
    """Self times and counts per op kind, from the traced loop's spans."""
    children = defaultdict(list)
    roots = {}
    for span in tracer.spans:
        if span[3].startswith("op."):
            roots[span[0]] = span
        else:
            children[span[2]].append(span)

    def descend(span):
        for child in children.get(span[1], ()):
            yield child
            yield from descend(child)

    def total(spans, name, field=None) -> int:
        if field is None:
            return sum(s[5] - s[4] for s in spans if s[3] == name)
        return sum(s[6].get(field, 0) for s in spans if s[3] == name)

    shard_of = getattr(index, "shard_for", None)
    per_kind = defaultdict(list)
    for trace_id, record in enumerate(records, start=1):
        root = roots[trace_id]
        below = list(descend(root))
        per_kind[record.op.kind].append((record, root, below))

    # singlepoint reads: where one query's time goes
    decode, read, gets, nbytes, lookup, self_ns, entries = ([] for _ in range(7))
    foreign = 0
    for record, root, below in per_kind["P"]:
        decode_ns = total(below, "storage.decode")
        get_ns = total(below, "storage.get")
        cache_ns = total(below, "cache.lookup") + total(below, "cache.put")
        decode.append(decode_ns)
        read.append(get_ns - decode_ns)
        gets.append(total(below, "storage.get", "keys"))
        nbytes.append(total(below, "storage.decode", "bytes"))
        lookup.append(cache_ns)
        self_ns.append(record.ns - get_ns - cache_ns)
        entries.append(root[6]["entries"])
        if shard_of is not None:
            owner = f"era{shard_of(record.op.arg).shard_id}"
            foreign += sum(s[6]["keys"] for s in below
                           if s[3] == "storage.get" and s[6]["store"] != owner)
    metrics["storage.decode_ms"] = _median_ms(decode)
    metrics["storage.read_ms"] = _median_ms(read)
    metrics["storage.gets_per_query"] = _median(gets)
    metrics["storage.bytes_read_per_query"] = _median(nbytes)
    metrics["cache.lookup_ms"] = _median_ms(lookup)
    # What is left of a query after storage and cache is the index's own
    # work: planning (timed standalone), the pool overlay where there is a
    # pool (the ladder's tax), and applying deltas onto the snapshot.
    metrics["core.apply_ms"] = max(
        _median_ms(self_ns) - metrics["core.plan_ms"]
        - metrics["graphpool.overlay_ms"], 0.0)
    metrics["core.entries_written_per_query"] = _median(entries)
    metrics["sharding.foreign_shard_reads"] = foreign

    # ingest batches: the write path
    ingest = per_kind["G"]
    events = sum(r.op.arg[1] - r.op.arg[0] for r, _root, _below in ingest)
    encode_ns = sum(total(below, "storage.encode") for _r, _, below in ingest)
    put_ns = sum(total(below, "storage.put") for _r, _, below in ingest)
    batch_ns = sum(r.ns for r, _root, _below in ingest)
    written = sum(total(below, "storage.encode", "bytes")
                  for _r, _root, below in ingest)
    if ingest:
        metrics["storage.encode_ms"] = encode_ns / 1e6 / len(ingest)
        metrics["storage.put_ms"] = (put_ns - encode_ns) / 1e6 / len(ingest)
        metrics["storage.bytes_written_per_event"] = written / events
        metrics["core.append_ms_per_event"] = (
            (batch_ns - put_ns) / 1e6 / events)
    sealing = [(r, root) for r, root, _below in ingest
               if root[6]["leaves_sealed"]]
    sealed = sum(root[6]["leaves_sealed"] for _r, root in sealing)
    metrics["core.seal_ms"] = _median_ms([r.ns for r, _root in sealing])
    if sealed:
        metrics["core.keys_written_per_seal"] = (
            sum(root[6]["keys_written"] for _r, root in sealing) / sealed)
    metrics["core.refinalizes"] = sum(root[6]["refinalizes"]
                                      for root in roots.values())
    rolling = [(r, root) for r, root, _below in ingest if root[6]["shards"]]
    metrics["sharding.rollovers"] = sum(root[6]["shards"]
                                        for _r, root in rolling)
    metrics["sharding.rollover_ms"] = _median_ms([r.ns for r, _root in rolling])

    # scans: one seed retrieval against replay per step
    seed, step, step_gets, applied, entered = ([] for _ in range(5))
    for _record, root, below in per_kind["S"]:
        steps = [s for s in below if s[3] == "scan.step"]
        if not steps:
            continue
        replay_from = steps[0][4]
        seed.append(total(below, "scan.seed"))
        step.append(total(below, "scan.step") / len(steps))
        step_gets.append(sum(s[6]["keys"] for s in below
                             if s[3] == "storage.get" and s[4] >= replay_from)
                         / len(steps))
        applied.append(root[6]["events_applied"] / len(steps))
        entered.append(root[6]["shards_entered"])
    metrics["scan.seed_ms"] = _median_ms(seed)
    metrics["scan.step_ms"] = _median_ms(step)
    metrics["scan.gets_per_step"] = _median(step_gets)
    metrics["scan.events_applied_per_step"] = _median(applied)
    metrics["scan.shards_entered"] = _median(entered)
