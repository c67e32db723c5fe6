"""The shared wire layer: golden frames, primitives, decoder hardening.

``repro.wire`` states framing, field codecs and the relayed-error registry
once; the query service (magic 0xC5) and the shard-worker RPC (magic 0xC7)
add an op table each.  Three things are pinned here:

* **golden frames** — for every service operation, result kind, the
  rejection frame and every worker opcode, one fixed value whose encoded
  hex was captured from the hand-written encoders this layer replaced.
  The tables must emit the same bytes and read them back;
* the envelope and field-codec **primitives**, once, over both magics;
* **malformed input** is always the protocol's typed error — a corrupt
  codec blob, a blob length that overruns its frame, a cut-off pickle.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from test_ingest_conformance import canonical_bytes

from repro import wire
from repro.core.events import new_edge, new_node
from repro.core.snapshot import GraphSnapshot
from repro.errors import TimeOutOfRangeError
from repro.service import protocol
from repro.service.protocol import (
    AdmissionRejected,
    CountResult,
    ErrorResult,
    GetIntervalOp,
    GetSnapshotOp,
    GetSnapshotsOp,
    IngestOp,
    PingOp,
    PongResult,
    ProtocolError,
    ScanOp,
    SealOp,
    SnapshotResult,
    SnapshotsResult,
    StatsOp,
    StatsResult,
)
from repro.sharding import rpc
from repro.sharding.rpc import WorkerProtocolError, WorkerTimeout


def fixed_snapshot(time):
    snapshot = GraphSnapshot.empty(time=time)
    for event in (new_node(1, 3), new_node(2, 4),
                  new_edge(5, 0, 3, 4, directed=True)):
        snapshot.apply_event(event)
    return snapshot


SNAP = fixed_snapshot(9)
UNTIMED = fixed_snapshot(None)
PAYLOAD = protocol.encode_snapshot(SNAP)
EVENTS = [new_node(100, 7), new_edge(101, 1, 7, 8)]

# ---------------------------------------------------------------------------
# golden frames (hex captured at the commit before the tables existed)
# ---------------------------------------------------------------------------

SERVICE_OPS = [
    (PingOp(),
     "c501014d0100"),
    (GetSnapshotOp(42, "+node:all"),
     "c501014d010154092b6e6f64653a616c6c"),
    (GetSnapshotsOp((10, 20, 900, -3), "-edge:weight"),
     "c501014d0102041414e00d8d0e0c2d656467653a776569676874"),
    (GetIntervalOp(5, 25, ""),
     "c501014d01030a3200"),
    (ScanOp((3, 4, 5, 9)),
     "c501014d01040406020208"),
    (IngestOp(tuple(EVENTS)),
     "c501014d010510d7010200020002c80102010e0e020e10"),
    (SealOp(False),
     "c501014d010600"),
    (StatsOp(),
     "c501014d0107"),
]

SERVICE_BATCH = (
    "c50101ac0208000154092b6e6f64653a616c6c02041414e00d8d0e0c2d65"
    "6467653a776569676874030a32000404060202080510d7010200020002c8"
    "0102010e0e020e10060007")

SERVICE_RESULTS = [
    (ErrorResult("query", "boom"),
     "c501020500010005717565727904626f6f6d"),
    (PongResult(),
     "c5010205000101"),
    (SnapshotResult(9, PAYLOAD),
     "c5010205000102121ed70101000206020100000003020302080303060308"
     "020000000000000000"),
    (SnapshotsResult(((3, PAYLOAD), (8, PAYLOAD))),
     "c501020500010302061ed701010002060201000000030203020803030603"
     "080200000000000000000a1ed70101000206020100000003020302080303"
     "060308020000000000000000"),
    (CountResult(12),
     "c501020500010418"),
    (StatsResult({"totals": {"events": 12}, "a": [1, 2]}),
     "c5010205000105277b2261223a205b312c20325d2c2022746f74616c7322"
     "3a207b226576656e7473223a2031327d7d"),
]

SERVICE_REJECTION = (
    "c5010203011261646d697373696f6e2d72656a65637465640766756c6c20"
    "7570")

#: (opcode, request fields, request frame, result, response frame)
WORKER_CALLS = [
    (rpc.OP_LOAD_SHARD, (({"leaf_count": 3}, ("object",), {"k": b"v"},
      1024),),
     "c701010b013a8005952f00000000000000287d948c0a6c6561665f636f75"
     "6e74944b03738c066f626a6563749485947d948c016b9443017694734d00"
     "0474942e",
     None,
     "c701020b00"),
    (rpc.OP_PING, (0.25,),
     "c701010b023fd0000000000000",
     4242,
     "c701020b009221"),
    (rpc.OP_GET_SNAPSHOT, (42, ["struct", "nodeattr"], None),
     "c701010b0354010206737472756374086e6f64656174747200",
     SNAP,
     "c701020b000101121ed70101000206020100000003020302080303060308"
     "020000000000000000"),
    (rpc.OP_GET_SNAPSHOTS, ([10, 20, 900, -3], None, [2, 0]),
     "c701010b04041414e00d8d0e0001020400",
     [SNAP, UNTIMED],
     "c701020b00020101121ed701010002060201000000030203020803030603"
     "0802000000000000000001001ed701010002060201000000030203020803"
     "03060308020000000000000000"),
    (rpc.OP_GET_INTERVAL, (5, 25, [], False, SNAP),
     "c701010b050a320100000101121ed7010100020602010000000302030208"
     "0303060308020000000000000000",
     UNTIMED,
     "c701020b0001001ed7010100020602010000000302030208030306030802"
     "0000000000000000"),
    (rpc.OP_REPLAY_STATE, (["struct"],),
     "c701010b06010106737472756374",
     ([(None, 5, "el:0"), (6, 9, "el:1")], EVENTS),
     "c701020b00298005951e000000000000005d94284e4b058c04656c3a3094"
     "87944b064b098c04656c3a31948794652e10d7010200020002c80102010e"
     "0e020e10"),
    (rpc.OP_FETCH_EVENTLIST, ("el:1", None),
     "c701010b0704656c3a3100",
     EVENTS,
     "c701020b0010d7010200020002c80102010e0e020e10"),
    (rpc.OP_BUILD_ERA, ((("object",), {"k": b"v"}, {"leaf_eventlist_size": 24}, None, 99),
      SNAP, EVENTS),
     "c701010b08438005953800000000000000288c066f626a6563749485947d"
     "948c016b9443017694737d948c136c6561665f6576656e746c6973745f73"
     "697a65944b18734e4b6374942e0101121ed7010100020602010000000302"
     "030208030306030802000000000000000010d7010200020002c80102010e"
     "0e020e10",
     ({"leaf_count": 3}, ("object",), {"k": b"v"}),
     "c701020b00368005952b000000000000007d948c0a6c6561665f636f756e"
     "74944b03738c066f626a6563749485947d948c016b94430176947387942e"),
    (rpc.OP_STATS, (),
     "c701010b09",
     {"pid": 4242, "served_ops": 3, "io": None},
     "c701020b002e80059523000000000000007d94288c03706964944d92108c"
     "0a7365727665645f6f7073944b038c02696f944e752e"),
    (rpc.OP_SHUTDOWN, (),
     "c701010b0a",
     None,
     "c701020b00"),
    (rpc.OP_CRASH, (),
     "c701010b0b",
     None,
     "c701020b00"),
]

WORKER_ERROR = (
    "c701020b010e776f726b65722d74696d656f757408746f6f20736c6f77")


def comparable(value):
    """Snapshots compare by canonical bytes + timestamp; the rest by ==."""
    if isinstance(value, GraphSnapshot):
        return (value.time, canonical_bytes(value))
    if isinstance(value, (list, tuple)):
        return [comparable(item) for item in value]
    return value


@pytest.mark.parametrize("op, frame", SERVICE_OPS,
                         ids=[type(op).__name__ for op, _ in SERVICE_OPS])
def test_service_operation_frames_are_unchanged(op, frame):
    assert protocol.encode_request(77, [op]).hex() == frame
    assert protocol.decode_request(bytes.fromhex(frame)) == (77, [op])


def test_service_batch_frame_is_unchanged():
    ops = [op for op, _frame in SERVICE_OPS]
    assert protocol.encode_request(300, ops).hex() == SERVICE_BATCH
    assert protocol.decode_request(bytes.fromhex(SERVICE_BATCH)) == (300, ops)


@pytest.mark.parametrize("result, frame", SERVICE_RESULTS,
                         ids=[type(r).__name__ for r, _ in SERVICE_RESULTS])
def test_service_result_frames_are_unchanged(result, frame):
    assert protocol.encode_response(5, [result]).hex() == frame
    assert protocol.decode_response(bytes.fromhex(frame)) == (5, [result])


def test_service_tables_cover_exactly_the_golden_vocabulary():
    assert ([cls for cls, _ in protocol.OPERATIONS.rows.values()]
            == [type(op) for op, _ in SERVICE_OPS])
    assert ([cls for cls, _ in protocol.RESULTS.rows.values()]
            == [type(result) for result, _ in SERVICE_RESULTS])
    assert sorted(rpc.CALLS) == sorted(row[0] for row in WORKER_CALLS)


def test_design_doc_op_tables_are_the_codes_tables():
    """DESIGN.md §11 renders OPERATIONS, RESULTS and CALLS row for row."""
    def layout(fields):
        return " ".join(f"`{name}`:{codec.name}"
                        for name, codec in fields) or "—"

    rows = [f"| {tag} | `{cls.__name__}` | {layout(fields)} |"
            for table in (protocol.OPERATIONS, protocol.RESULTS)
            for tag, (cls, fields) in table.rows.items()]
    names = {value: name[3:] for name, value in vars(rpc).items()
             if name.startswith("OP_")}
    rows += [f"| {opcode} | `{names[opcode]}` | {layout(call.request)} "
             f"| {layout(call.response)} |"
             for opcode, call in rpc.CALLS.items()]
    design = (pathlib.Path(__file__).parent.parent / "DESIGN.md").read_text(
        encoding="utf-8")
    missing = [row for row in rows if row not in design]
    assert not missing, missing


def test_service_rejection_frame_is_unchanged():
    body = protocol.encode_rejection(3, AdmissionRejected.code, "full up")
    assert body.hex() == SERVICE_REJECTION
    with pytest.raises(AdmissionRejected, match="full up"):
        protocol.decode_response(body)


@pytest.mark.parametrize(
    "opcode, args, request_frame, result, response_frame", WORKER_CALLS,
    ids=[str(row[0]) for row in WORKER_CALLS])
def test_worker_call_frames_are_unchanged(opcode, args, request_frame,
                                          result, response_frame):
    request = rpc.encode_request(11, opcode, rpc.encode_args(opcode, args))
    assert request.hex() == request_frame
    request_id, got_opcode, payload = rpc.decode_request(request)
    assert (request_id, got_opcode) == (11, opcode)
    assert comparable(rpc.decode_args(opcode, payload)) == \
        comparable(list(args))

    response = rpc.encode_response(11, rpc.encode_result(opcode, result))
    assert response.hex() == response_frame
    got = rpc.decode_result(opcode, rpc.decode_response(response, 11))
    assert comparable(got) == comparable(result)


def test_worker_error_frame_is_unchanged():
    body = rpc.encode_error(11, rpc.error_code_for(WorkerTimeout("x")),
                            "too slow")
    assert body.hex() == WORKER_ERROR
    with pytest.raises(WorkerTimeout, match="too slow"):
        rpc.decode_response(body, 11)


# ---------------------------------------------------------------------------
# envelope primitives, once over both magics
# ---------------------------------------------------------------------------

ENVELOPES = pytest.mark.parametrize(
    "envelope", [protocol.ENVELOPE, rpc.ENVELOPE],
    ids=["service-0xC5", "worker-0xC7"])


@ENVELOPES
def test_frame_length_guard(envelope):
    framed = envelope.encode_frame(b"abc")
    assert framed.hex() == "00000003616263"
    assert envelope.frame_length(framed[:4]) == 3
    with pytest.raises(envelope.error, match="cap"):
        envelope.frame_length(b"\xff\xff\xff\xff")
    with pytest.raises(envelope.error, match="truncated"):
        envelope.frame_length(b"\x00\x00")


@ENVELOPES
def test_header_rejects_bad_magic_version_and_kind(envelope):
    body = bytes(envelope.header(wire.KIND_REQUEST, 7))
    assert body[0] == envelope.magic
    envelope.check_header(body, wire.KIND_REQUEST)
    with pytest.raises(envelope.error, match="magic"):
        envelope.check_header(b"\x00" + body[1:], wire.KIND_REQUEST)
    with pytest.raises(envelope.error, match="version"):
        envelope.check_header(bytes([body[0], 99]) + body[2:],
                              wire.KIND_REQUEST)
    with pytest.raises(envelope.error, match="kind"):
        envelope.check_header(body, wire.KIND_RESPONSE)


@ENVELOPES
def test_error_bodies_relay_through_the_one_registry(envelope):
    """Each protocol's own types, the library's, and unknown codes."""
    for exc in (envelope.error("bad frame"), TimeOutOfRangeError("early")):
        body = envelope.encode_error(1, wire.error_code_for(exc), str(exc))
        with pytest.raises(type(exc), match=str(exc)):
            envelope.read_status(body, 4)
    assert wire.error_code_for(KeyError("k")) == wire.RemoteError.code
    assert isinstance(wire.exception_for("no-such-code", "m"),
                      wire.RemoteError)


@ENVELOPES
def test_truncated_fields_raise_the_envelopes_error(envelope):
    out = bytearray()
    wire.STR.write(out, "attr")
    with pytest.raises(envelope.error, match="truncated or corrupt"):
        with envelope.decoding("frame"):
            wire.STR.read(bytes(out[:1]), 0)
            wire.UVARINT.read(b"", 0)


# ---------------------------------------------------------------------------
# field codecs
# ---------------------------------------------------------------------------

def round_trip(codec, value):
    out = bytearray()
    codec.write(out, value)
    got, pos = codec.read(bytes(out), 0)
    assert pos == len(out)
    return got


def test_optional_lists_distinguish_none_from_empty():
    for values in (None, [], ["struct", "attr"]):
        assert round_trip(rpc.OPT_STRS, values) == values
    for values in (None, [], [3, 1, -2]):
        assert round_trip(rpc.OPT_INTS, values) == values


def test_times_are_delta_coded_and_round_trip():
    times = (5, 5, 9, 100, 7, -3)
    assert round_trip(wire.TIMES, times) == times
    out = bytearray()
    wire.write_times(out, (1000, 1001, 1002))
    assert len(out) == 1 + 2 + 1 + 1, "consecutive times cost one byte each"


def test_snapshot_field_preserves_elements_and_optional_time():
    for snapshot in (SNAP, UNTIMED):
        got = round_trip(wire.SNAPSHOT, snapshot)
        assert comparable(got) == comparable(snapshot)
    assert round_trip(rpc.OPT_SNAPSHOT, None) is None


def test_a_reply_missing_its_snapshot_is_a_protocol_fault():
    absent = rpc.encode_response(1, b"\x00")
    with pytest.raises(WorkerProtocolError, match="absent"):
        rpc.decode_result(rpc.OP_GET_SNAPSHOT, rpc.decode_response(absent, 1))


# ---------------------------------------------------------------------------
# malformed input is always the protocol's typed error
# ---------------------------------------------------------------------------

def test_corrupt_ingest_blob_is_a_protocol_error_not_a_zlib_error():
    """request 1, one op, INGEST, a 2-byte blob the codec cannot inflate."""
    with pytest.raises(ProtocolError, match="event payload is corrupt"):
        protocol.decode_request(bytes.fromhex("c5010101010502") + b"ab")


def test_corrupt_snapshot_payload_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="corrupt"):
        protocol.decode_snapshot(b"ab", 5)
    with pytest.raises(ProtocolError, match="did not decode"):
        protocol.decode_snapshot(protocol.WIRE_CODEC.encode(EVENTS), 5)


def test_blob_length_is_checked_against_the_frame():
    """A 1000-byte blob length with 2 bytes left says so — not '-998
    trailing bytes'."""
    body = (protocol.encode_response(5, [])[:-1]
            + bytes.fromhex("01" "02" "12" "e807") + b"ab")
    with pytest.raises(ProtocolError, match="blob length 1000 exceeds frame"):
        protocol.decode_response(body)


def test_cut_off_pickle_is_a_worker_protocol_error():
    """...so the shard's fallback (which dispatches on WorkerError) runs."""
    payload = rpc.encode_result(rpc.OP_STATS, {"pid": 1, "io": None})
    with pytest.raises(WorkerProtocolError, match="exceeds frame"):
        rpc.decode_result(rpc.OP_STATS, payload[:-5])
    with pytest.raises(WorkerProtocolError):
        rpc.decode_args(rpc.OP_GET_SNAPSHOT, b"\x54\x01\x05")


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_sharding_does_not_import_the_service():
    """The worker RPC sits on repro.wire, not on the service package."""
    script = ("import sys, repro.sharding; "
              "sys.exit(any(name.startswith('repro.service') "
              "for name in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", script],
                          env=env).returncode == 0
