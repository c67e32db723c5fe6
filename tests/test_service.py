"""The concurrent query service: protocol, leases, fairness, admission.

Four layers of coverage:

* pure wire-protocol round trips (no sockets);
* :class:`~repro.service.session.LeaseTable` semantics under a fake clock,
  including the acceptance property that *lease expiry releases retired
  payloads* while a live lease blocks the purge;
* an end-to-end differential check — concurrent reader clients during live
  ingest must return byte-identical element maps to a direct, untouched
  :class:`~repro.query.managers.HistoryManager` over the same trace (zero
  stale reads), while the writing session observes its own ingests
  immediately (read-your-writes);
* the admission controller rejecting request N+1 with a typed
  :class:`~repro.service.protocol.AdmissionRejected` while N are queued.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.events import new_edge, new_node
from repro.core.snapshot import GraphSnapshot
from repro.errors import TimeOutOfRangeError
from repro.query.attr_options import parse_attr_options
from repro.query.managers import HistoryManager
from repro.service import (
    AdmissionRejected,
    LeaseTable,
    ProtocolError,
    ServiceClient,
    ServiceServer,
)
from repro.service.protocol import (
    CountResult,
    ErrorResult,
    GetIntervalOp,
    GetSnapshotOp,
    GetSnapshotsOp,
    IngestOp,
    PingOp,
    PongResult,
    ScanOp,
    SealOp,
    SnapshotResult,
    SnapshotsResult,
    StatsOp,
    StatsResult,
    decode_request,
    decode_response,
    decode_snapshot,
    encode_frame,
    encode_rejection,
    encode_request,
    encode_response,
    encode_snapshot,
    frame_length,
)


def build_manager(num_events=120, leaf=10, arity=2) -> HistoryManager:
    events = [new_node(t, t) for t in range(1, num_events + 1)]
    return HistoryManager.build_index(events, leaf_eventlist_size=leaf,
                                      arity=arity)


@pytest.fixture
def server():
    """A running service over a small single-shard index; stopped on exit."""
    manager = build_manager()
    service = ServiceServer(manager, lease_ttl=60, sweep_interval=30)
    service.start_in_background()
    yield service
    service.stop()


# ---------------------------------------------------------------------------
# wire protocol round trips
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_request_round_trip_all_ops(self):
        ops = [
            PingOp(),
            GetSnapshotOp(42, "+node:all"),
            GetSnapshotOp(-7),
            GetSnapshotsOp((10, 20, 900), "-edge:weight"),
            GetIntervalOp(5, 25, ""),
            ScanOp((3, 4, 5, 9)),
            IngestOp((new_node(100, 7), new_edge(101, 1, 7, 8))),
            SealOp(False),
            StatsOp(),
        ]
        request_id, decoded = decode_request(encode_request(77, ops))
        assert request_id == 77
        assert decoded == ops

    def test_response_round_trip_all_results(self):
        snapshot = GraphSnapshot.empty(time=9)
        snapshot.apply_event(new_node(9, 1))
        payload = encode_snapshot(snapshot)
        results = [
            PongResult(),
            SnapshotResult(9, payload),
            SnapshotsResult(((3, payload), (8, payload))),
            CountResult(12),
            StatsResult({"totals": {"events": 12}}),
            ErrorResult("query", "boom"),
        ]
        request_id, decoded = decode_response(encode_response(5, results))
        assert request_id == 5
        assert decoded == results
        assert decoded[1].snapshot().element_map() == snapshot.element_map()

    def test_snapshot_codec_preserves_typed_elements(self):
        snapshot = GraphSnapshot.empty(time=50)
        for event in (new_node(1, 3), new_node(2, 4),
                      new_edge(5, 0, 3, 4, directed=True)):
            snapshot.apply_event(event)
        snapshot.elements[("NA", 3, "score")] = 17
        decoded = decode_snapshot(encode_snapshot(snapshot), 50)
        assert decoded.time == 50
        assert decoded.element_map() == snapshot.element_map()

    def test_rejection_decodes_by_raising_typed_error(self):
        body = encode_rejection(3, AdmissionRejected.code, "full up")
        with pytest.raises(AdmissionRejected, match="full up"):
            decode_response(body)

    def test_bad_magic_version_and_trailing_bytes(self):
        body = encode_request(1, [PingOp()])
        with pytest.raises(ProtocolError):
            decode_request(b"\x00" + body[1:])
        with pytest.raises(ProtocolError, match="version"):
            decode_request(bytes([body[0], 99]) + body[2:])
        with pytest.raises(ProtocolError, match="trailing"):
            decode_request(body + b"\x00")
        with pytest.raises(ProtocolError, match="opcode"):
            decode_request(body[:-1] + b"\xee")

    def test_frame_length_guard(self):
        framed = encode_frame(b"abc")
        assert frame_length(framed[:4]) == 3
        with pytest.raises(ProtocolError, match="cap"):
            frame_length(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="truncated"):
            frame_length(b"\x00\x00")


# ---------------------------------------------------------------------------
# leases pin reader generations
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLeases:
    def make_table(self, manager, ttl=10.0):
        clock = FakeClock()
        table = LeaseTable(manager.acquire_read_lease,
                           manager.release_read_lease, ttl=ttl, clock=clock)
        return table, clock

    def retire_some_payloads(self, manager):
        """Ingest + seal enough to stamp retired grace-period payloads."""
        start = 1000
        for batch in range(3):
            base = start + batch * 20
            manager.ingest([new_node(base + i, base + i) for i in range(20)])
            manager.seal(partial=True)
        return manager.index.retired_payload_count()

    def test_live_lease_blocks_purge_expiry_releases(self):
        manager = build_manager()
        table, clock = self.make_table(manager)
        lease = table.acquire()
        pending = self.retire_some_payloads(manager)
        assert pending > 0
        # The lease pins the pre-ingest generation: nothing may be purged.
        assert manager.purge_retired() == 0
        assert manager.index.retired_payload_count() == pending
        # Lease expiry (fake clock, deterministic) releases the pin...
        clock.advance(11)
        assert table.sweep() == 1
        assert table.active_count() == 0
        assert table.expired == 1
        assert lease.released
        # ...and the retired payloads become reclaimable.
        assert manager.purge_retired() > 0
        assert manager.index.retired_payload_count() == 0
        assert manager.index.pinned_generations() == {}

    def test_refresh_defers_expiry_release_is_idempotent(self):
        manager = build_manager()
        table, clock = self.make_table(manager)
        lease = table.acquire()
        clock.advance(8)
        table.refresh(lease)
        clock.advance(8)          # 16s since acquire, 8s since refresh
        assert table.sweep() == 0
        assert table.active_count() == 1
        table.release(lease)
        table.release(lease)      # idempotent
        assert table.released == 1
        assert manager.index.pinned_generations() == {}
        assert table.rows() == []

    def test_pin_floor_is_min_over_active_leases(self):
        manager = build_manager()
        table, clock = self.make_table(manager)
        old = table.acquire()
        self.retire_some_payloads(manager)
        newer = table.acquire()   # pins the *current* (later) generation
        # Releasing the newer lease must not unblock payloads the older
        # lease still protects.
        table.release(newer)
        assert manager.purge_retired() == 0
        table.release(old)
        assert manager.purge_retired() > 0


# ---------------------------------------------------------------------------
# end-to-end service behaviour
# ---------------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_queries_match_direct_manager(self, server):
        reference = build_manager()   # identical trace, never served
        no_filter = parse_attr_options("")
        with ServiceClient(server.host, server.port) as client:
            for time in (1, 7, 60, 120):
                served = client.get_snapshot(time)
                direct = reference.retrieve(time, no_filter)
                assert served.element_map() == direct.element_map()
            times = [5, 40, 115]
            series = client.get_snapshots(times)
            for time, snapshot in zip(times, series):
                assert snapshot.element_map() == \
                    reference.retrieve(time, no_filter).element_map()
            scan_times = [30, 31, 35]
            for time, snapshot in zip(scan_times, client.scan(scan_times)):
                assert snapshot.element_map() == \
                    reference.retrieve(time, no_filter).element_map()
            interval = client.get_interval(10, 20)
            direct = reference.retrieve_interval(10, 20, no_filter)
            assert interval.element_map() == direct.element_map()

    def test_attr_options_travel_the_wire(self, server):
        with ServiceClient(server.host, server.port) as client:
            bare = client.get_snapshot(50, "-node:all")
            assert all(key[0] != "NA" for key in bare.element_map())

    def test_typed_errors_are_relayed(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(TimeOutOfRangeError, match="precedes"):
                client.get_snapshot(-5)
            # The connection survives a relayed error.
            client.ping()

    def test_corrupt_ingest_payload_is_rejected_typed(self, server):
        """A well-framed ingest whose codec blob is garbage gets the typed
        ``protocol`` rejection — the connection handler must not die on the
        codec's own exception before answering."""
        body = bytes.fromhex("c5010101010502") + b"ab"
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(encode_frame(body))
            reader = sock.makefile("rb")
            reply = reader.read(frame_length(reader.read(4)))
        with pytest.raises(ProtocolError, match="corrupt"):
            decode_response(reply)

    def test_batch_is_one_frame_with_in_order_results(self, server):
        with ServiceClient(server.host, server.port) as client:
            sent_before = client.requests_sent
            results = (client.batch()
                       .ping()
                       .get_snapshot(10)
                       .get_snapshot(-5)     # per-op error mid-batch
                       .get_snapshots([20, 30])
                       .stats()
                       .send())
            assert client.requests_sent == sent_before + 1
            assert isinstance(results[0], PongResult)
            assert isinstance(results[1], SnapshotResult)
            assert isinstance(results[2], ErrorResult)
            assert results[2].code == "time-out-of-range"
            assert isinstance(results[3], SnapshotsResult)
            assert isinstance(results[4], StatsResult)
            # One bad op does not poison its siblings.
            assert len(results[1].snapshot().node_ids()) == 10

    def test_stats_report_shape(self, server):
        with ServiceClient(server.host, server.port) as client:
            client.ping()
            report = client.stats()
        assert report["totals"]["shards"] == 1
        assert report["totals"]["events"] >= 120
        service = report["service"]
        assert service["sessions_open"] >= 1
        assert service["requests_completed"] >= 1
        assert service["leases"]["active"] >= 1
        assert service["leases"]["acquired"] >= service["leases"]["active"]
        assert service["max_queued"] == 64

    def test_disconnect_releases_lease(self, server):
        client = ServiceClient(server.host, server.port)
        client.ping()
        assert server.lease_table.active_count() == 1
        client.close()
        deadline = threading.Event()
        for _ in range(100):
            if server.lease_table.active_count() == 0:
                break
            deadline.wait(0.05)
        assert server.lease_table.active_count() == 0


class TestConcurrentReadersDuringIngest:
    """The acceptance differential: N readers during live ingest.

    Readers hammer *historical* timepoints — invariant under append-only
    ingest — and every response is compared against a direct, never-served
    HistoryManager over the same trace.  Any stale read (a response
    reflecting a half-applied batch, or a payload yanked mid-plan) breaks
    the equality.  Meanwhile the writing session asserts read-your-writes:
    a snapshot requested right after ``ingest`` returns must contain every
    event of that batch.
    """

    NUM_READERS = 3
    QUERIES_PER_READER = 12
    WRITE_BATCHES = 6

    def test_differential_zero_stale_reads(self):
        manager = build_manager(num_events=150, leaf=10)
        reference = build_manager(num_events=150, leaf=10)
        no_filter = parse_attr_options("")
        service = ServiceServer(manager, lease_ttl=60, read_workers=4)
        host, port = service.start_in_background()
        failures = []
        start = threading.Barrier(self.NUM_READERS + 1)

        def reader(seed):
            try:
                with ServiceClient(host, port) as client:
                    start.wait(timeout=10)
                    for i in range(self.QUERIES_PER_READER):
                        time = 1 + (seed * 37 + i * 13) % 150
                        served = client.get_snapshot(time)
                        direct = reference.retrieve(time, no_filter)
                        if served.element_map() != direct.element_map():
                            failures.append(
                                f"stale read at t={time} (reader {seed})")
                        # Multipoint mid-ingest exercises plan/payload reuse.
                        if i % 4 == 0:
                            times = [time, min(time + 5, 150)]
                            for t, snap in zip(times,
                                               client.get_snapshots(times)):
                                if snap.element_map() != reference.retrieve(
                                        t, no_filter).element_map():
                                    failures.append(f"stale multi at t={t}")
            except Exception as exc:  # noqa: BLE001 - surfaced via failures
                failures.append(f"reader {seed} crashed: {exc!r}")

        def writer():
            try:
                with ServiceClient(host, port) as client:
                    start.wait(timeout=10)
                    for batch in range(self.WRITE_BATCHES):
                        base = 1000 + batch * 30
                        events = [new_node(base + i, base + i)
                                  for i in range(25)]
                        assert client.ingest(events) == 25
                        # Read-your-writes: the same session's next read
                        # sees every event it just ingested.
                        own = client.get_snapshot(base + 24).element_map()
                        for i in range(25):
                            if ("N", base + i) not in own:
                                failures.append(
                                    f"lost own write N{base + i}")
                        client.seal(partial=True)
            except Exception as exc:  # noqa: BLE001 - surfaced via failures
                failures.append(f"writer crashed: {exc!r}")

        threads = [threading.Thread(target=reader, args=(n,))
                   for n in range(self.NUM_READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.stop()
        assert not failures, failures[:5]


class TestAdmissionControl:
    def test_request_cap_rejects_n_plus_one_typed(self):
        manager = build_manager(num_events=40, leaf=8)
        service = ServiceServer(manager, max_queued=2,
                                lease_ttl=60, sweep_interval=30)
        host, port = service.start_in_background()
        try:
            service.pause_dispatch()
            client = ServiceClient(host, port)
            sock = client._sock
            # With dispatch paused the read loop still *admits* requests —
            # it just cannot complete them, so outstanding grows.
            for request_id in (1, 2):
                sock.sendall(encode_frame(encode_request(request_id,
                                                         [PingOp()])))
            # Request N+1 must bounce immediately with the typed error,
            # ahead of the queued requests' responses.
            sock.sendall(encode_frame(encode_request(3, [PingOp()])))
            body = client._recv_exactly(
                frame_length(client._recv_exactly(4)))
            with pytest.raises(AdmissionRejected, match="capacity"):
                decode_response(body)
            # Draining the backlog restores admission.
            service.resume_dispatch()
            for expected_id in (1, 2):
                body = client._recv_exactly(
                    frame_length(client._recv_exactly(4)))
                response_id, results = decode_response(body)
                assert response_id == expected_id
                assert results == [PongResult()]
            client._next_request_id = 4
            client.ping()
            assert service.requests_rejected == 1
            client.close()
        finally:
            service.stop()

    def test_fairness_oldest_idle_session_first(self):
        manager = build_manager(num_events=40, leaf=8)
        service = ServiceServer(manager, max_queued=16,
                                lease_ttl=60, sweep_interval=30)
        host, port = service.start_in_background()
        try:
            service.pause_dispatch()
            greedy = ServiceClient(host, port)
            patient = ServiceClient(host, port)
            # The greedy session queues three requests before the patient
            # session queues one.
            for request_id in (1, 2, 3):
                greedy._sock.sendall(encode_frame(
                    encode_request(request_id, [PingOp()])))
            import time as _t
            _t.sleep(0.2)       # let the read loops admit in order
            patient._sock.sendall(encode_frame(
                encode_request(1, [PingOp()])))
            _t.sleep(0.2)
            service.resume_dispatch()
            # One-in-flight-per-session means the patient session's lone
            # request cannot be starved behind the greedy backlog: it gets
            # its answer even though it arrived last.
            patient._sock.settimeout(5)
            body = patient._recv_exactly(
                frame_length(patient._recv_exactly(4)))
            response_id, results = decode_response(body)
            assert (response_id, results) == (1, [PongResult()])
            for expected_id in (1, 2, 3):
                body = greedy._recv_exactly(
                    frame_length(greedy._recv_exactly(4)))
                assert decode_response(body)[0] == expected_id
            greedy.close()
            patient.close()
        finally:
            service.stop()
