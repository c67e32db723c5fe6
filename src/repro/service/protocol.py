"""Batched wire protocol of the query service (magic ``0xC5``).

Framing, the field codecs and the relayed-error registry are the shared
wire layer's (:mod:`repro.wire`); this module adds the service's
vocabulary — the operation and result dataclasses and the two tables that
give each one's tag byte and ordered field layout::

    request  := header request_id(uvarint) op_count(uvarint) (opcode(1) field*)*
    response := header request_id(uvarint) status=0 count(uvarint) (kind(1) field*)*
              | header request_id(uvarint) status=1 code(str) message(str)

Requests are *batches*: several operations ride in one frame and their
results come back in one frame, in op order — the round-trip cost of a
K-point analysis is one frame pair, not K
(``benchmarks/test_service_throughput.py`` asserts the byte accounting).
Snapshot-shaped results and ingest payloads are packed-codec bytes
(:func:`~repro.wire.encode_snapshot`).

Both sides drive the same tables, so client and server cannot drift.
Per-operation failures travel as :class:`ErrorResult` ``(code, message)``
pairs and are re-raised typed on the client (:func:`exception_for`); a
whole-request rejection (admission cap, malformed frame) decodes by
raising, e.g. :class:`AdmissionRejected`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .. import wire
from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from ..errors import ReproError
from ..wire import (
    BLOB,
    BOOL,
    EVENTS,
    JSON,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_BYTES,
    STATUS_OK,
    STR,
    TIMES,
    VARINT,
    WIRE_CODEC,
    FieldCodec,
    RemoteError,
    encode_snapshot,
    error_code_for,
    exception_for,
    read_blob,
    read_uvarint,
    read_varint,
    write_blob,
    write_uvarint,
    write_varint,
)

__all__ = [
    "AdmissionRejected",
    "CountResult",
    "ENVELOPE",
    "ErrorResult",
    "GetIntervalOp",
    "GetSnapshotOp",
    "GetSnapshotsOp",
    "IngestOp",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "PingOp",
    "PongResult",
    "ProtocolError",
    "RemoteError",
    "ScanOp",
    "SealOp",
    "ServiceError",
    "SnapshotResult",
    "SnapshotsResult",
    "StatsOp",
    "StatsResult",
    "WIRE_CODEC",
    "decode_request",
    "decode_response",
    "decode_snapshot",
    "encode_frame",
    "encode_rejection",
    "encode_request",
    "encode_response",
    "encode_snapshot",
    "error_code_for",
    "exception_for",
    "frame_length",
]

SERVICE_MAGIC = 0xC5
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class of the service layer's errors."""

    code = "service"


class ProtocolError(ServiceError):
    """A malformed, oversized, or version-incompatible frame."""

    code = "protocol"


class AdmissionRejected(ServiceError):
    """The admission controller refused the request (cap reached)."""

    code = "admission-rejected"


wire.register_errors(AdmissionRejected, ProtocolError)

ENVELOPE = wire.Envelope(SERVICE_MAGIC, PROTOCOL_VERSION, ProtocolError)

encode_frame = ENVELOPE.encode_frame
frame_length = ENVELOPE.frame_length


def decode_snapshot(payload: bytes, time: int) -> GraphSnapshot:
    """Inverse of :func:`encode_snapshot`; corrupt payloads raise
    :class:`ProtocolError`."""
    with ENVELOPE.decoding("snapshot payload"):
        return wire.decode_snapshot(payload, time)


# ---------------------------------------------------------------------------
# operations (request side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PingOp:
    """Liveness / round-trip probe."""


@dataclass(frozen=True)
class GetSnapshotOp:
    """``GetHistGraph(t, attr_options)`` over the wire."""

    time: int
    attr_options: str = ""


@dataclass(frozen=True)
class GetSnapshotsOp:
    """Multipoint retrieval: one Steiner plan server-side."""

    times: Tuple[int, ...]
    attr_options: str = ""


@dataclass(frozen=True)
class GetIntervalOp:
    """Elements added in ``[start, end)`` plus transient events."""

    start: int
    end: int
    attr_options: str = ""


@dataclass(frozen=True)
class ScanOp:
    """Evolution scan: one seed retrieval + delta replay server-side."""

    times: Tuple[int, ...]


@dataclass(frozen=True)
class IngestOp:
    """Append live events (the single serialized write path)."""

    events: Tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class SealOp:
    """Force-seal buffered recent events into leaves."""

    partial: bool = True


@dataclass(frozen=True)
class StatsOp:
    """Fetch the server's aggregated ``stats_report()``."""


Operation = Union[PingOp, GetSnapshotOp, GetSnapshotsOp, GetIntervalOp,
                  ScanOp, IngestOp, SealOp, StatsOp]

#: opcode -> (operation, its payload fields in wire order).
OPERATIONS = wire.RecordTable(ProtocolError, "operation", "opcode", {
    0: (PingOp, ()),
    1: (GetSnapshotOp, (("time", VARINT), ("attr_options", STR))),
    2: (GetSnapshotsOp, (("times", TIMES), ("attr_options", STR))),
    3: (GetIntervalOp, (("start", VARINT), ("end", VARINT),
                        ("attr_options", STR))),
    4: (ScanOp, (("times", TIMES),)),
    5: (IngestOp, (("events", EVENTS),)),
    6: (SealOp, (("partial", BOOL),)),
    7: (StatsOp, ()),
})


# ---------------------------------------------------------------------------
# results (response side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PongResult:
    """Reply to :class:`PingOp`."""


@dataclass(frozen=True)
class SnapshotResult:
    """One snapshot, packed-codec encoded; :meth:`snapshot` decodes."""

    time: int
    payload: bytes

    def snapshot(self) -> GraphSnapshot:
        return decode_snapshot(self.payload, self.time)


@dataclass(frozen=True)
class SnapshotsResult:
    """A time-ordered series of packed snapshots (multipoint / scan)."""

    steps: Tuple[Tuple[int, bytes], ...]

    def snapshots(self) -> List[GraphSnapshot]:
        return [decode_snapshot(payload, time) for time, payload in self.steps]


@dataclass(frozen=True)
class CountResult:
    """An integer result (events ingested, leaves sealed)."""

    value: int


@dataclass(frozen=True)
class StatsResult:
    """The server's aggregated counter report (JSON-shaped)."""

    report: Dict


@dataclass(frozen=True)
class ErrorResult:
    """A relayed per-operation failure."""

    code: str
    message: str

    def exception(self) -> Exception:
        return exception_for(self.code, self.message)


Result = Union[PongResult, SnapshotResult, SnapshotsResult, CountResult,
               StatsResult, ErrorResult]

def _write_steps(out: bytearray, steps: Sequence[Tuple[int, bytes]]) -> None:
    write_uvarint(out, len(steps))
    previous = 0
    for time, payload in steps:
        write_varint(out, time - previous)
        previous = time
        write_blob(out, payload)


def _read_steps(data: bytes, pos: int
                ) -> Tuple[Tuple[Tuple[int, bytes], ...], int]:
    count, pos = read_uvarint(data, pos)
    steps = []
    previous = 0
    for _ in range(count):
        delta, pos = read_varint(data, pos)
        previous += delta
        payload, pos = read_blob(data, pos)
        steps.append((previous, payload))
    return tuple(steps), pos


#: A series of packed snapshots with delta-coded times.
_STEPS = FieldCodec("steps", _write_steps, _read_steps)

#: result kind -> (result, its payload fields in wire order).
RESULTS = wire.RecordTable(ProtocolError, "result", "result kind", {
    0: (ErrorResult, (("code", STR), ("message", STR))),
    1: (PongResult, ()),
    2: (SnapshotResult, (("time", VARINT), ("payload", BLOB))),
    3: (SnapshotsResult, (("steps", _STEPS),)),
    4: (CountResult, (("value", VARINT),)),
    5: (StatsResult, (("report", JSON),)),
})


# ---------------------------------------------------------------------------
# request / response bodies
# ---------------------------------------------------------------------------

def encode_request(request_id: int, ops: Sequence[Operation]) -> bytes:
    """Serialize one batched request body (frame it with
    :func:`encode_frame`)."""
    out = ENVELOPE.header(KIND_REQUEST, request_id)
    OPERATIONS.write(out, ops)
    return bytes(out)


def decode_request(body: bytes) -> Tuple[int, List[Operation]]:
    """Inverse of :func:`encode_request`."""
    ENVELOPE.check_header(body, KIND_REQUEST)
    with ENVELOPE.decoding("request frame"):
        request_id, pos = read_uvarint(body, 3)
        return request_id, OPERATIONS.read(body, pos)


def encode_response(request_id: int, results: Sequence[Result]) -> bytes:
    """Serialize one batched response body (result per op, in op order)."""
    out = ENVELOPE.header(KIND_RESPONSE, request_id)
    out.append(STATUS_OK)
    RESULTS.write(out, results)
    return bytes(out)


def encode_rejection(request_id: int, code: str, message: str) -> bytes:
    """Serialize a whole-request rejection (admission / protocol)."""
    return ENVELOPE.encode_error(request_id, code, message)


def decode_response(body: bytes) -> Tuple[int, List[Result]]:
    """Inverse of :func:`encode_response`.

    A rejection decodes by *raising* its typed exception — the request
    never executed, so there are no per-op results to return.
    """
    ENVELOPE.check_header(body, KIND_RESPONSE)
    with ENVELOPE.decoding("response frame"):
        request_id, pos = read_uvarint(body, 3)
        return request_id, RESULTS.read(body, ENVELOPE.read_status(body, pos))
