"""Fault injection for the era-shard worker pool.

The worker protocol's contract is that a worker can die at *any* moment —
mid-query, mid-build, between requests — and the federation still answers
every query correctly from its retained in-process copies, raising only
typed :class:`~repro.sharding.rpc.WorkerError` subclasses at the handle
level and never a hang, a torn store, or a wrong byte.  These tests drive
each crash window deliberately:

* ``REPRO_WORKER_FAULT="query:N"`` — shard N's worker exits after
  *accepting* a snapshot request, before any response byte (hard EOF on a
  round trip in flight);
* ``REPRO_WORKER_FAULT="build:N"`` — era N's build worker completes the
  build, flushes the store, and dies before acknowledging it (the torn
  write-ahead case the retried in-process build must absorb);
* ``ShardWorker.inject_crash()`` — death between requests;
* a ping whose worker-side delay exceeds the health-check deadline.

All subprocess-spawning tests take the ``child_reaper`` fixture so an
assertion failure cannot leave orphaned workers behind.
"""

from __future__ import annotations

import pytest
from test_ingest_conformance import canonical_bytes, make_trace

from repro.errors import TimeOutOfRangeError
from repro.core.deltagraph import DeltaGraph
from repro.scan import EvolutionScanner
from repro.sharding import (
    EventCountPolicy,
    ShardedHistoryIndex,
    WorkerCrashed,
    WorkerProtocolError,
    WorkerTimeout,
)
from repro.sharding import rpc
from repro.storage.disk_store import DiskKVStore

LEAF = 24


def build_federation(reaper, events, per_era=110, tmp_path=None, **kwargs):
    """A subprocess-mode federation, registered for reaping."""
    if tmp_path is not None:
        kwargs["store_factory"] = (
            lambda shard_id: DiskKVStore(str(tmp_path / f"s{shard_id}.db")))
    return reaper.register(ShardedHistoryIndex.build(
        events, EventCountPolicy(per_era), worker_mode="subprocess",
        leaf_eventlist_size=LEAF, **kwargs))


# ---------------------------------------------------------------------------
# mid-query crash
# ---------------------------------------------------------------------------

def test_worker_killed_mid_query_raises_typed_and_federation_falls_back(
        child_reaper, monkeypatch):
    """An in-flight crash is a WorkerError at the handle, a correct answer
    at the federation."""
    monkeypatch.setenv("REPRO_WORKER_FAULT", "query:0")
    events = make_trace(420, seed=101)
    reference = DeltaGraph.build(events, leaf_eventlist_size=LEAF)
    fed = build_federation(child_reaper, events)
    victim = fed.shards[0]
    handle = victim.worker
    assert handle is not None and handle.serving
    t = (victim.t_lo + victim.t_hi) // 2

    # Handle level: the round trip dies in flight with a *typed* error —
    # never a hang (the EOF arrives immediately) and never a bare OSError.
    with pytest.raises(WorkerCrashed):
        handle.get_snapshot(t)
    assert not handle.serving

    # Federation level: the same query now answers correctly in-process.
    before = dict(fed._worker_events)
    got = fed.get_snapshot(t)
    assert canonical_bytes(got) == canonical_bytes(reference.get_snapshot(t))
    assert victim.worker is None, "dead worker must be retired"
    assert fed._worker_events["fallbacks"] > before["fallbacks"]
    assert fed._worker_events["crashes"] > before["crashes"]

    # Healthy shards keep their workers; multipoint still byte-identical.
    times = [t, events.end_time]
    for got_s, want_s in zip(fed.get_snapshots(times),
                             reference.get_snapshots(times)):
        assert canonical_bytes(got_s) == canonical_bytes(want_s)
    assert any(s.worker is not None and s.worker.serving
               for s in fed.shards[1:-1] or fed.shards[1:])


def test_crash_between_requests_is_detected_on_next_query(child_reaper):
    """inject_crash kills the worker idle; the next query falls back."""
    events = make_trace(420, seed=101)
    reference = DeltaGraph.build(events, leaf_eventlist_size=LEAF)
    fed = build_federation(child_reaper, events)
    victim = fed.shards[1]
    victim.worker.inject_crash()
    assert not victim.worker.serving
    t = victim.t_lo + 1
    got = fed.get_snapshot(t)
    assert canonical_bytes(got) == canonical_bytes(reference.get_snapshot(t))
    assert victim.worker is None
    assert fed._worker_events["crashes"] >= 1


def test_scan_source_fails_over_mid_scan(child_reaper):
    """A replay source survives its worker dying between calls."""
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    shard = fed.shards[0]
    source = shard.replay_source()
    spans_via_worker, _recent = source.replay_state()
    shard.worker.inject_crash()
    spans_after, _recent = source.replay_state()  # silently in-process now
    assert len(spans_after) == len(spans_via_worker)
    assert shard.worker is None, "failover callback must retire the worker"


def _eventlists(source, shard):
    """Every sealed eventlist of ``shard``, fetched through ``source``."""
    spans, _recent = shard.index.replay_state()
    return [source.fetch_eventlist(span[2]) for span in spans]


#: read -> (federation, unsharded reference, t in shard 0) -> (got, want).
#: The two replay calls have no unsharded counterpart (spans are per-index);
#: they compare against the retained in-process copy, which the conformance
#: suites hold to that same reference.
FALLBACK_READS = {
    "get_snapshot": lambda fed, ref, t: (
        fed.get_snapshot(t), ref.get_snapshot(t)),
    "get_snapshots": lambda fed, ref, t: (
        fed.get_snapshots([t, fed.tail.t_lo, t + 1]),
        ref.get_snapshots([t, fed.tail.t_lo, t + 1])),
    "get_interval_graph": lambda fed, ref, t: (
        fed.get_interval_graph(t, fed.tail.t_lo + 3),
        ref.get_interval_graph(t, fed.tail.t_lo + 3)),
    "replay_state": lambda fed, ref, t: (
        fed.shards[0].replay_state(), fed.shards[0].index.replay_state()),
    "fetch_eventlist": lambda fed, ref, t: (
        _eventlists(fed.shards[0], fed.shards[0]),
        _eventlists(fed.shards[0].index, fed.shards[0])),
}


def _bytes_of(value):
    if isinstance(value, (list, tuple)):
        return [_bytes_of(item) for item in value]
    return canonical_bytes(value) if hasattr(value, "element_map") else value


@pytest.mark.parametrize("backend", ["memory", "disk"])
@pytest.mark.parametrize("read", sorted(FALLBACK_READS))
def test_every_shard_read_falls_back_once_when_its_worker_is_dead(
        child_reaper, tmp_path, backend, read):
    """Each of EraShard's five read calls, made first on a dead worker:
    same bytes as the reference, the worker retired, and the fallback and
    the crash counted exactly once — never again on later reads."""
    events = make_trace(300, seed=7)
    reference = DeltaGraph.build(events, leaf_eventlist_size=LEAF)
    fed = build_federation(child_reaper, events, per_era=100,
                           tmp_path=tmp_path if backend == "disk" else None)
    victim = fed.shards[0]
    assert victim.worker is not None and victim.worker.serving
    before = fed._worker_events
    t = (victim.t_lo + victim.t_hi) // 2

    victim.worker.inject_crash()
    got, want = FALLBACK_READS[read](fed, reference, t)
    assert _bytes_of(got) == _bytes_of(want)
    assert victim.worker is None, "the dead worker must be retired"
    after = fed._worker_events
    assert after["fallbacks"] == before["fallbacks"] + 1
    assert after["crashes"] == before["crashes"] + 1

    got, want = FALLBACK_READS[read](fed, reference, t)
    assert _bytes_of(got) == _bytes_of(want)
    assert fed._worker_events == after, "one fallback per dead worker"
    # The whole federation still scans byte-identically across the era.
    times = [t, victim.t_hi, events.end_time]
    for step, want_snapshot in zip(EvolutionScanner(fed).scan(times),
                                   reference.get_snapshots(times)):
        assert canonical_bytes(step.snapshot()) == \
            canonical_bytes(want_snapshot)


# ---------------------------------------------------------------------------
# crash during a parallel era build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_build_worker_crash_is_retried_without_a_torn_store(
        child_reaper, monkeypatch, tmp_path, backend):
    """A worker dying after flushing its era build leaves no torn store.

    The retried in-process build re-appends over the same log; latest-wins
    reads make the retry idempotent, so every query stays byte-identical
    to the unsharded reference and the ``build_fallbacks`` counter records
    the recovery.
    """
    monkeypatch.setenv("REPRO_WORKER_FAULT", "build:1")
    events = make_trace(420, seed=67)
    reference = DeltaGraph.build(events, leaf_eventlist_size=LEAF)
    fed = build_federation(
        child_reaper, events,
        tmp_path=tmp_path if backend == "disk" else None)
    assert len(fed.shards) >= 3
    assert fed._worker_events["build_fallbacks"] >= 1
    assert fed._worker_events["worker_builds"] >= 1, \
        "the un-faulted eras must still build in workers"
    start, end = events.start_time, events.end_time
    times = sorted({start + (end - start) * i // 8 for i in range(9)})
    for t in times:
        assert canonical_bytes(fed.get_snapshot(t)) == \
            canonical_bytes(reference.get_snapshot(t)), f"@ {t}"
    lo, hi = times[0], times[-1] + 1
    assert canonical_bytes(fed.get_interval_graph(lo, hi)) == \
        canonical_bytes(reference.get_interval_graph(lo, hi))


# ---------------------------------------------------------------------------
# health checks
# ---------------------------------------------------------------------------

def test_health_check_expiry_retires_the_worker(child_reaper):
    """A ping slower than its deadline is a WorkerTimeout + retirement."""
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    shard = fed.shards[0]
    handle = shard.worker
    with pytest.raises(WorkerTimeout):
        handle.ping(timeout=0.4, delay=5.0)
    assert not handle.serving

    report = fed.health_check(timeout=2.0)
    assert report[0] is False, "expired worker must report unhealthy"
    assert shard.worker is None, "health check must retire it"
    assert all(healthy in (True, None) for sid, healthy in report.items()
               if sid != 0)


def test_health_check_all_green_and_tail_unpromoted(child_reaper):
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    report = fed.health_check()
    sealed = [s.shard_id for s in fed.shards[:-1]]
    for shard_id in sealed:
        assert report[shard_id] is True
    assert report[fed.tail.shard_id] is None, "tail always runs in-process"


# ---------------------------------------------------------------------------
# lifecycle idempotence
# ---------------------------------------------------------------------------

def test_double_shutdown_is_idempotent(child_reaper):
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    handle = fed.shards[0].worker
    handle.shutdown()
    assert not handle.serving
    handle.shutdown()  # second call is a no-op, not a ValueError
    handle.kill()      # and a kill after shutdown is safe too

    fed.close()
    fed.close()        # federation close is idempotent as well
    # The index stays fully usable in-process after close().
    t = events.end_time
    reference = DeltaGraph.build(events, leaf_eventlist_size=LEAF)
    assert canonical_bytes(fed.get_snapshot(t)) == \
        canonical_bytes(reference.get_snapshot(t))


def test_shutdown_after_crash_does_not_raise(child_reaper):
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    handle = fed.shards[0].worker
    handle.inject_crash()
    handle.shutdown()  # reaping an already-dead worker must be quiet
    assert handle.pid is None or not handle.alive


# ---------------------------------------------------------------------------
# typed error relay
# ---------------------------------------------------------------------------

def test_application_errors_relay_typed_through_the_worker(child_reaper):
    """A worker-side TimeOutOfRangeError re-raises typed at the handle and
    does not kill the worker."""
    events = make_trace(300, seed=7)
    fed = build_federation(child_reaper, events, per_era=100)
    handle = fed.shards[0].worker
    with pytest.raises(TimeOutOfRangeError):
        handle.get_snapshot(events.start_time - 10 ** 6)
    assert handle.serving, "an application error must not cost the worker"
    handle.ping()


# ---------------------------------------------------------------------------
# wire protocol units (no subprocess)
# ---------------------------------------------------------------------------

def test_rpc_request_envelope_round_trip():
    body = rpc.encode_request(7, rpc.OP_PING, b"payload")
    request_id, opcode, payload = rpc.decode_request(body)
    assert (request_id, opcode, payload) == (7, rpc.OP_PING, b"payload")


def test_rpc_response_desync_is_a_protocol_error():
    body = rpc.encode_response(3, b"x")
    assert rpc.decode_response(body, 3) == b"x"
    with pytest.raises(WorkerProtocolError):
        rpc.decode_response(body, 4)


def test_rpc_error_frames_round_trip_worker_and_service_codes():
    # Worker transport codes map back to their own classes...
    body = rpc.encode_error(1, rpc.error_code_for(WorkerCrashed("boom")),
                            "boom")
    with pytest.raises(WorkerCrashed):
        rpc.decode_response(body, 1)
    # ...and application errors reuse the service registry.
    code = rpc.error_code_for(TimeOutOfRangeError("too early"))
    with pytest.raises(TimeOutOfRangeError):
        rpc.decode_response(rpc.encode_error(2, code, "too early"), 2)
    # Unknown codes degrade to the base WorkerError, never a KeyError.
    assert isinstance(rpc.exception_for("no-such-code", "m"), Exception)


# The field codecs these envelopes carry (optional lists, delta-coded times,
# snapshots) are the shared wire layer's: see tests/test_wire.py.


# ---------------------------------------------------------------------------
# store transfer recipes (no subprocess)
# ---------------------------------------------------------------------------

def test_store_transfer_round_trips_both_backends(tmp_path):
    from repro.storage.instrumented import InstrumentedKVStore
    from repro.storage.memory_store import InMemoryKVStore
    from repro.storage.transfer import (
        export_store,
        open_store,
        travels_by_value,
    )

    import pickle

    memory = InMemoryKVStore()
    memory.put("k", b"v")
    spec, payload = export_store(memory)
    assert travels_by_value(spec), "memory stores ship whole"
    assert open_store(spec, payload) is memory, \
        "in-process the recipe resolves to the same object"
    # Across the process boundary the payload pickles into a real copy.
    clone = open_store(spec, pickle.loads(pickle.dumps(payload)))
    assert clone is not memory and clone.get("k") == b"v"

    disk = DiskKVStore(str(tmp_path / "era.db"))
    disk.put("k", b"v")
    spec, payload = export_store(disk)
    assert not travels_by_value(spec), "disk stores ship by path"
    reopened = open_store(spec, payload)
    assert reopened.get("k") == b"v"
    reopened.close()
    disk.close()

    wrapped = InstrumentedKVStore(InMemoryKVStore())
    wrapped.put("k", b"v")
    spec, payload = export_store(wrapped)
    assert travels_by_value(spec), "instrumented wrappers follow the inner"
    clone = open_store(spec, payload)
    assert clone.get("k") == b"v"
    assert clone.stats.puts == wrapped.stats.puts, \
        "I/O counters must survive the hop"
