"""Wire protocol of the era-shard worker processes (magic ``0xC7``).

One shard worker speaks one socket to its router, carrying length-prefixed
frames in strict request/response lockstep.  Framing, the field codecs, the
packed snapshot/event payloads and the ``(code, message)`` error registry
are the shared wire layer's (:mod:`repro.wire`) — a worker relaying a
``TimeOutOfRangeError`` produces exactly the bytes the query service would,
and the router re-raises it typed.  What is specific to this link lives
here: the opcodes and :data:`CALLS`, the table giving each opcode's request
and response payload layout; the lockstep request-id check; pickled
*internal* state; and socket I/O that surfaces failures typed::

    request  := header request_id(uvarint) opcode(1) field*
    response := header request_id(uvarint) status=0 field*
              | header request_id(uvarint) status=1 code(str) message(str)

Structured internal state (a detached index, a store spec, construction
kwargs) travels pickled — both endpoints are the same codebase on the same
host, spawned by the router itself; this link is not an external trust
boundary the way the query service's is.

Transport failures surface as the three typed errors the shard's fallback
dispatches on: :class:`WorkerCrashed` (EOF / reset — the process died),
:class:`WorkerTimeout` (no answer within the deadline — the worker is
wedged and its connection can no longer be trusted), and
:class:`WorkerProtocolError` (desynced or corrupt frames).
"""

from __future__ import annotations

import pickle
import socket
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from .. import wire
from ..errors import ReproError
from ..wire import (
    BOOL,
    EVENTS,
    F64,
    KIND_REQUEST,
    KIND_RESPONSE,
    SNAPSHOT,
    STATUS_OK,
    STR,
    TIMES,
    UVARINT,
    VARINT,
    FieldCodec,
    Fields,
    error_code_for,
    exception_for,
    list_of,
    optional,
    read_blob,
    read_uvarint,
    write_blob,
)

__all__ = [
    "CALLS",
    "Call",
    "ENVELOPE",
    "OP_BUILD_ERA",
    "OP_CRASH",
    "OP_FETCH_EVENTLIST",
    "OP_GET_INTERVAL",
    "OP_GET_SNAPSHOT",
    "OP_GET_SNAPSHOTS",
    "OP_LOAD_SHARD",
    "OP_PING",
    "OP_REPLAY_STATE",
    "OP_SHUTDOWN",
    "OP_STATS",
    "WORKER_MAGIC",
    "WORKER_PROTOCOL_VERSION",
    "WorkerCrashed",
    "WorkerError",
    "WorkerProtocolError",
    "WorkerTimeout",
    "decode_args",
    "decode_request",
    "decode_response",
    "decode_result",
    "encode_args",
    "encode_error",
    "encode_request",
    "encode_response",
    "encode_result",
    "error_code_for",
    "exception_for",
    "read_obj",
    "recv_frame",
    "send_frame",
    "write_obj",
]

WORKER_MAGIC = 0xC7
WORKER_PROTOCOL_VERSION = 1

OP_LOAD_SHARD = 1
OP_PING = 2
OP_GET_SNAPSHOT = 3
OP_GET_SNAPSHOTS = 4
OP_GET_INTERVAL = 5
OP_REPLAY_STATE = 6
OP_FETCH_EVENTLIST = 7
OP_BUILD_ERA = 8
OP_STATS = 9
OP_SHUTDOWN = 10
#: Fault-injection hook: the worker exits immediately, mid-request, without
#: replying — the router's crash detection sees a hard EOF.  Test-only.
OP_CRASH = 11


# ---------------------------------------------------------------------------
# typed transport errors
# ---------------------------------------------------------------------------

class WorkerError(ReproError):
    """Base class of shard-worker transport failures.

    The shard's automatic in-process fallback dispatches on exactly this
    type: *transport* failures degrade to the retained in-process index,
    while typed application errors relayed from a healthy worker
    (``TimeOutOfRangeError``, ``QueryError``, ...) re-raise to the caller
    like an in-process query's would.
    """

    code = "worker"


class WorkerCrashed(WorkerError):
    """The worker process died (EOF, reset, or failed spawn)."""

    code = "worker-crashed"


class WorkerTimeout(WorkerError):
    """The worker missed a response deadline (health-check expiry)."""

    code = "worker-timeout"


class WorkerProtocolError(WorkerError):
    """A malformed, desynced, or version-incompatible worker frame."""

    code = "worker-protocol"


wire.register_errors(WorkerCrashed, WorkerTimeout, WorkerProtocolError,
                     WorkerError)

ENVELOPE = wire.Envelope(WORKER_MAGIC, WORKER_PROTOCOL_VERSION,
                         WorkerProtocolError)


# ---------------------------------------------------------------------------
# framing over a socket
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, body: bytes) -> None:
    """Write one length-prefixed frame; broken pipes raise typed."""
    try:
        sock.sendall(ENVELOPE.encode_frame(body))
    except socket.timeout as exc:
        raise WorkerTimeout(f"timed out sending a worker frame: {exc}") \
            from None
    except OSError as exc:
        raise WorkerCrashed(f"worker connection lost while sending: {exc}") \
            from None


def _recv_exactly(sock: socket.socket, length: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < length:
        try:
            chunk = sock.recv(length - len(chunks))
        except socket.timeout as exc:
            raise WorkerTimeout(
                f"timed out waiting for a worker frame: {exc}") from None
        except OSError as exc:
            raise WorkerCrashed(
                f"worker connection lost while receiving: {exc}") from None
        if not chunk:
            raise WorkerCrashed("worker connection closed mid-frame"
                                if chunks or length != 4
                                else "worker connection closed")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame body; EOF/timeout raise typed."""
    return _recv_exactly(sock, ENVELOPE.frame_length(_recv_exactly(sock, 4)))


# ---------------------------------------------------------------------------
# request / response envelopes
# ---------------------------------------------------------------------------

def encode_request(request_id: int, opcode: int, payload: bytes = b"") -> bytes:
    out = ENVELOPE.header(KIND_REQUEST, request_id)
    out.append(opcode)
    out.extend(payload)
    return bytes(out)


def decode_request(body: bytes) -> Tuple[int, int, bytes]:
    """``(request_id, opcode, payload)`` of one request frame."""
    ENVELOPE.check_header(body, KIND_REQUEST)
    with ENVELOPE.decoding("worker request frame"):
        request_id, pos = read_uvarint(body, 3)
        return request_id, body[pos], bytes(body[pos + 1:])


def encode_response(request_id: int, payload: bytes = b"") -> bytes:
    out = ENVELOPE.header(KIND_RESPONSE, request_id)
    out.append(STATUS_OK)
    out.extend(payload)
    return bytes(out)


encode_error = ENVELOPE.encode_error


def decode_response(body: bytes, expected_request_id: int) -> bytes:
    """The payload of an OK response; error responses raise typed.

    A response carrying a different request id means the connection is
    desynced (e.g. a previous call timed out and its answer arrived late),
    which is unrecoverable on a lockstep link — typed protocol error.
    """
    ENVELOPE.check_header(body, KIND_RESPONSE)
    with ENVELOPE.decoding("worker response frame"):
        request_id, pos = read_uvarint(body, 3)
        if request_id != expected_request_id:
            raise WorkerProtocolError(
                f"worker answered request {request_id}, expected "
                f"{expected_request_id} (desynced connection)")
        return bytes(body[ENVELOPE.read_status(body, pos):])


# ---------------------------------------------------------------------------
# payload layouts: one table, both directions
# ---------------------------------------------------------------------------

def write_obj(out: bytearray, value: object) -> None:
    """Pickle an internal structure into the payload."""
    write_blob(out, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def read_obj(data: bytes, pos: int) -> Tuple[object, int]:
    blob, pos = read_blob(data, pos)
    return pickle.loads(blob), pos


OBJ = FieldCodec("pickle", write_obj, read_obj)
OPT_STRS = optional(list_of(STR))
OPT_INTS = optional(list_of(VARINT))
OPT_SNAPSHOT = optional(SNAPSHOT)
#: A reply that must carry a snapshot: same bytes, absent is a fault.
REPLY_SNAPSHOT = optional(SNAPSHOT, required=True)


class Call(NamedTuple):
    """One opcode's payload layouts, request then response."""

    request: Fields
    response: Fields


#: opcode -> its two payload layouts.  :class:`~repro.sharding.workers.
#: ShardWorker` encodes arguments and the worker's serve loop decodes them
#: from ``request``; results travel back through ``response``.
CALLS: Dict[int, Call] = {
    OP_LOAD_SHARD: Call(
        # (detached index state, store spec, store payload, cache recipe)
        (("shard", OBJ),), ()),
    OP_PING: Call(
        (("delay", F64),), (("pid", UVARINT),)),
    OP_GET_SNAPSHOT: Call(
        (("time", VARINT), ("components", OPT_STRS),
         ("partitions", OPT_INTS)),
        (("snapshot", REPLY_SNAPSHOT),)),
    OP_GET_SNAPSHOTS: Call(
        (("times", TIMES), ("components", OPT_STRS),
         ("partitions", OPT_INTS)),
        (("snapshots", list_of(REPLY_SNAPSHOT)),)),
    OP_GET_INTERVAL: Call(
        (("start", VARINT), ("end", VARINT), ("components", OPT_STRS),
         ("include_transient", BOOL), ("into", OPT_SNAPSHOT)),
        (("combined", REPLY_SNAPSHOT),)),
    OP_REPLAY_STATE: Call(
        (("components", OPT_STRS),),
        (("spans", OBJ), ("recent", EVENTS))),
    OP_FETCH_EVENTLIST: Call(
        (("eventlist_id", STR), ("components", OPT_STRS)),
        (("events", EVENTS),)),
    OP_BUILD_ERA: Call(
        # (store spec, store payload, index kwargs, cache recipe, start time)
        (("era", OBJ), ("initial_graph", OPT_SNAPSHOT), ("events", EVENTS)),
        # (detached index state, store spec, store payload)
        (("built", OBJ),)),
    OP_STATS: Call((), (("report", OBJ),)),
    OP_SHUTDOWN: Call((), ()),
    OP_CRASH: Call((), ()),
}


def _layouts(opcode: int) -> Call:
    call = CALLS.get(opcode)
    if call is None:
        raise WorkerProtocolError(f"unknown worker opcode {opcode}")
    return call


def _pack(fields: Fields, values: Sequence) -> bytes:
    out = bytearray()
    wire.write_fields(out, fields, values)
    return bytes(out)


def _unpack(fields: Fields, payload: bytes, what: str) -> List:
    with ENVELOPE.decoding(what):
        values, _pos = wire.read_fields(payload, 0, fields)
    return values


def encode_args(opcode: int, args: Sequence) -> bytes:
    """A request payload: ``args`` laid out as the opcode's request fields."""
    return _pack(_layouts(opcode).request, args)


def decode_args(opcode: int, payload: bytes) -> List:
    return _unpack(_layouts(opcode).request, payload, "worker request payload")


def encode_result(opcode: int, result: Any) -> bytes:
    """A response payload.  ``result`` is the opcode's one response value,
    a tuple of them when it declares several, ``None`` when none."""
    fields = _layouts(opcode).response
    return _pack(fields, (result,) if len(fields) == 1 else result or ())


def decode_result(opcode: int, payload: bytes) -> Any:
    """Inverse of :func:`encode_result`."""
    values = _unpack(_layouts(opcode).response, payload,
                     "worker response payload")
    return values[0] if len(values) == 1 else tuple(values) or None
