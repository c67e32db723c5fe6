"""The wire layer shared by the query service and the shard-worker RPC.

Everything transport-neutral is stated once, here.  The two protocols built
on it — :mod:`repro.service.protocol` (magic ``0xC5``) and
:mod:`repro.sharding.rpc` (magic ``0xC7``) — add only an *op table* each:
per opcode, the ordered ``(field, codec)`` list of its payload.

Frame layout::

    frame := length(u32 big-endian) body             (body <= 64 MiB)
    body  := MAGIC(1) VERSION(1) kind(1) request_id(uvarint) rest
    error := ... status=1 code(str) message(str)

Integers are the packed codec's varints (zigzag for signed).  Snapshots and
event batches ride as :class:`~repro.storage.packed.PackedCodec` payloads:
a snapshot's element map *is* an additions-only
:class:`~repro.core.delta.Delta`, so the byte layout that stores deltas on
disk serializes them on both links too.

Field readers signal malformed input with ``IndexError``/``ValueError``;
:meth:`Envelope.decoding` turns those into the protocol's own typed error at
the one place each decoder is entered.  Failures relayed *inside* a
well-formed frame travel as ``(code, message)`` pairs through one registry
(:func:`error_code_for` / :func:`exception_for`).
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .core.delta import Delta
from .core.events import Event
from .core.snapshot import GraphSnapshot
from .errors import (
    ConfigurationError,
    EventError,
    QueryError,
    ReproError,
    TimeOutOfRangeError,
)
from .storage.packed import (
    PackedCodec,
    read_str,
    read_uvarint,
    read_varint,
    write_str,
    write_uvarint,
    write_varint,
)

__all__ = [
    "BLOB",
    "BOOL",
    "EVENTS",
    "Envelope",
    "F64",
    "FieldCodec",
    "Fields",
    "JSON",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_FRAME_BYTES",
    "RecordTable",
    "RemoteError",
    "SNAPSHOT",
    "STATUS_ERROR",
    "STATUS_OK",
    "STR",
    "TIMES",
    "UVARINT",
    "VARINT",
    "WIRE_CODEC",
    "decode_snapshot",
    "encode_snapshot",
    "error_code_for",
    "exception_for",
    "list_of",
    "optional",
    "read_blob",
    "read_events",
    "read_fields",
    "read_str",
    "read_times",
    "read_uvarint",
    "read_varint",
    "register_errors",
    "write_blob",
    "write_events",
    "write_fields",
    "write_str",
    "write_times",
    "write_uvarint",
    "write_varint",
]

#: Hard cap on one frame's body; oversized lengths indicate a desynced or
#: hostile peer and are rejected before any allocation.
MAX_FRAME_BYTES = 64 << 20

KIND_REQUEST = 1
KIND_RESPONSE = 2

STATUS_OK = 0
STATUS_ERROR = 1

#: The codec for snapshot and event payloads on both links — the same packed
#: columnar codec the storage layer uses.
WIRE_CODEC = PackedCodec()

_LENGTH = struct.Struct(">I")
_F64 = struct.Struct(">d")


# ---------------------------------------------------------------------------
# relayed errors: one (code, message) registry
# ---------------------------------------------------------------------------

class RemoteError(ReproError):
    """An unclassified failure relayed from the other end of a link."""

    code = "internal"


#: (exception type, wire code), most specific first — lookup is by
#: ``isinstance``, so a subclass must precede its base.
_ERROR_CODES: List[Tuple[Type[Exception], str]] = [
    (TimeOutOfRangeError, "time-out-of-range"),
    (QueryError, "query"),
    (EventError, "event"),
    (ConfigurationError, "config"),
    (ReproError, "repro"),
]


def register_errors(*types: Type[Exception]) -> None:
    """Add a protocol's own error types (each carrying a ``code``), most
    specific first; they precede the library errors they derive from."""
    _ERROR_CODES[0:0] = [(exc_type, exc_type.code) for exc_type in types]


def error_code_for(exc: BaseException) -> str:
    """The wire error code an endpoint reports for ``exc``."""
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return RemoteError.code


def exception_for(code: str, message: str) -> Exception:
    """The typed exception raised for a relayed ``(code, message)`` pair."""
    for exc_type, known in _ERROR_CODES:
        if known == code:
            return exc_type(message)
    return RemoteError(message)


# ---------------------------------------------------------------------------
# envelope: framing, header, status — parameterised per protocol
# ---------------------------------------------------------------------------

class Envelope:
    """One protocol's frame constants: its magic byte, its version, and the
    typed error its encoders and decoders raise."""

    def __init__(self, magic: int, version: int,
                 error: Type[Exception]) -> None:
        self.magic = magic
        self.version = version
        self.error = error

    def encode_frame(self, body: bytes) -> bytes:
        """Prefix a body with its u32 length."""
        if len(body) > MAX_FRAME_BYTES:
            raise self.error(f"frame body of {len(body)} bytes exceeds the "
                             f"{MAX_FRAME_BYTES}-byte cap")
        return _LENGTH.pack(len(body)) + body

    def frame_length(self, prefix: bytes) -> int:
        """Decode and validate a 4-byte length prefix."""
        if len(prefix) != _LENGTH.size:
            raise self.error("truncated frame length prefix")
        (length,) = _LENGTH.unpack(prefix)
        if length > MAX_FRAME_BYTES:
            raise self.error(f"frame length {length} exceeds the "
                             f"{MAX_FRAME_BYTES}-byte cap")
        return length

    def header(self, kind: int, request_id: int) -> bytearray:
        """The start of a body: magic, version, kind, request id."""
        out = bytearray((self.magic, self.version, kind))
        write_uvarint(out, request_id)
        return out

    def check_header(self, body: bytes, expected_kind: int) -> None:
        if len(body) < 3 or body[0] != self.magic:
            raise self.error("bad frame magic")
        if body[1] > self.version:
            raise self.error(f"frame version {body[1]} is newer than this "
                             f"endpoint (supports <= {self.version})")
        if body[2] != expected_kind:
            raise self.error(f"unexpected frame kind {body[2]} "
                             f"(wanted {expected_kind})")

    def encode_error(self, request_id: int, code: str, message: str) -> bytes:
        """A response body relaying a failure instead of results."""
        out = self.header(KIND_RESPONSE, request_id)
        out.append(STATUS_ERROR)
        write_str(out, code)
        write_str(out, message)
        return bytes(out)

    def read_status(self, body: bytes, pos: int) -> int:
        """Skip an OK status byte; an error status *raises* what it relays."""
        status = body[pos]
        pos += 1
        if status == STATUS_ERROR:
            code, pos = read_str(body, pos)
            message, pos = read_str(body, pos)
            raise exception_for(code, message)
        if status != STATUS_OK:
            raise self.error(f"unknown response status {status}")
        return pos

    @contextmanager
    def decoding(self, what: str) -> Iterator[None]:
        """Type whatever malformed input the field readers trip over."""
        try:
            yield
        except (IndexError, ValueError, struct.error) as exc:
            raise self.error(f"truncated or corrupt {what}: {exc}") from None


# ---------------------------------------------------------------------------
# field codecs
# ---------------------------------------------------------------------------

class FieldCodec(NamedTuple):
    """How one payload field is written to and read back from a body."""

    name: str
    write: Callable[[bytearray, Any], None]
    read: Callable[[bytes, int], Tuple[Any, int]]


#: An op's payload layout: its fields in wire order.
Fields = Tuple[Tuple[str, FieldCodec], ...]


def _write_bool(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _read_bool(data: bytes, pos: int) -> Tuple[bool, int]:
    return bool(data[pos]), pos + 1


def _write_f64(out: bytearray, value: float) -> None:
    out.extend(_F64.pack(value))


def _read_f64(data: bytes, pos: int) -> Tuple[float, int]:
    (value,) = _F64.unpack_from(data, pos)
    return value, pos + _F64.size


def write_blob(out: bytearray, blob: bytes) -> None:
    write_uvarint(out, len(blob))
    out.extend(blob)


def read_blob(data: bytes, pos: int) -> Tuple[bytes, int]:
    length, pos = read_uvarint(data, pos)
    if length > len(data) - pos:
        raise ValueError(f"blob length {length} exceeds frame")
    return bytes(data[pos:pos + length]), pos + length


def write_times(out: bytearray, times: Sequence[int]) -> None:
    """A delta-coded timepoint list."""
    write_uvarint(out, len(times))
    previous = 0
    for time in times:
        write_varint(out, time - previous)
        previous = time


def read_times(data: bytes, pos: int) -> Tuple[Tuple[int, ...], int]:
    count, pos = read_uvarint(data, pos)
    times = []
    previous = 0
    for _ in range(count):
        delta, pos = read_varint(data, pos)
        previous += delta
        times.append(previous)
    return tuple(times), pos


def list_of(item: FieldCodec) -> FieldCodec:
    """``count(uvarint) item*``."""
    def write(out: bytearray, values: Sequence) -> None:
        write_uvarint(out, len(values))
        for value in values:
            item.write(out, value)

    def read(data: bytes, pos: int) -> Tuple[List, int]:
        count, pos = read_uvarint(data, pos)
        values = []
        for _ in range(count):
            value, pos = item.read(data, pos)
            values.append(value)
        return values, pos

    return FieldCodec(f"list[{item.name}]", write, read)


def optional(inner: FieldCodec, required: bool = False) -> FieldCodec:
    """``present(1) inner?`` — ``None`` stays distinct from an empty value.

    ``required`` keeps the layout but the reader rejects an absent value: a
    reply that must carry a snapshot and does not is a protocol fault.
    """
    def write(out: bytearray, value: Any) -> None:
        _write_bool(out, value is not None)
        if value is not None:
            inner.write(out, value)

    def read(data: bytes, pos: int) -> Tuple[Any, int]:
        present, pos = _read_bool(data, pos)
        if present:
            return inner.read(data, pos)
        if required:
            raise ValueError(f"required {inner.name} is absent")
        return None, pos

    return FieldCodec(f"{'present' if required else 'opt'}[{inner.name}]",
                      write, read)


# -- packed-codec payloads ----------------------------------------------

def _decode_payload(payload: bytes, expected: type, what: str) -> Any:
    try:
        value = WIRE_CODEC.decode(payload)
    except Exception as exc:
        # The bytes crossed a socket: whatever the codec trips over (zlib,
        # lzma, struct, an index past the end) means a corrupt payload.
        raise ValueError(f"{what} payload is corrupt: {exc!r}") from None
    if not isinstance(value, expected):
        raise ValueError(f"{what} payload did not decode to "
                         f"a {expected.__name__}")
    return value


def encode_snapshot(snapshot: GraphSnapshot) -> bytes:
    """Serialize a snapshot with the packed columnar codec.

    A snapshot is exactly an additions-only delta from the empty graph, so
    the storage codec's delta layout (sorted delta-coded ids, grouped typed
    values, compression above the threshold) is the wire format too.
    """
    return WIRE_CODEC.encode(Delta(additions=dict(snapshot.items())))


def decode_snapshot(payload: bytes, time: Optional[int]) -> GraphSnapshot:
    """Inverse of :func:`encode_snapshot` (``ValueError`` if corrupt)."""
    delta = _decode_payload(payload, Delta, "snapshot")
    return GraphSnapshot(dict(delta.additions), time=time)


def _write_snapshot(out: bytearray, snapshot: GraphSnapshot) -> None:
    # The timestamp rides alongside: boundary snapshots and interval
    # accumulators may carry none, and it must survive the hop either way.
    OPT_TIME.write(out, snapshot.time)
    write_blob(out, encode_snapshot(snapshot))


def _read_snapshot(data: bytes, pos: int) -> Tuple[GraphSnapshot, int]:
    time, pos = OPT_TIME.read(data, pos)
    blob, pos = read_blob(data, pos)
    return decode_snapshot(blob, time), pos


def write_events(out: bytearray, events: Sequence[Event]) -> None:
    """An event batch through the packed codec's order-preserving columns."""
    write_blob(out, WIRE_CODEC.encode(list(events)))


def read_events(data: bytes, pos: int) -> Tuple[List[Event], int]:
    blob, pos = read_blob(data, pos)
    return _decode_payload(blob, list, "event"), pos


def _write_json(out: bytearray, value: Any) -> None:
    write_blob(out, json.dumps(value, sort_keys=True).encode("utf-8"))


def _read_json(data: bytes, pos: int) -> Tuple[Any, int]:
    blob, pos = read_blob(data, pos)
    return json.loads(blob), pos


UVARINT = FieldCodec("uvarint", write_uvarint, read_uvarint)
VARINT = FieldCodec("varint", write_varint, read_varint)
STR = FieldCodec("str", write_str, read_str)
BOOL = FieldCodec("bool", _write_bool, _read_bool)
F64 = FieldCodec("f64", _write_f64, _read_f64)
BLOB = FieldCodec("blob", write_blob, read_blob)
TIMES = FieldCodec("times", write_times, read_times)
EVENTS = FieldCodec("events", write_events, read_events)
JSON = FieldCodec("json", _write_json, _read_json)
OPT_TIME = optional(VARINT)
SNAPSHOT = FieldCodec("snapshot", _write_snapshot, _read_snapshot)


# ---------------------------------------------------------------------------
# the generic encode loop and the generic decode loop
# ---------------------------------------------------------------------------

def write_fields(out: bytearray, fields: Fields, values: Sequence) -> None:
    """Write ``values`` in the order and layout ``fields`` declares."""
    for (_name, codec), value in zip(fields, values, strict=True):
        codec.write(out, value)


def read_fields(data: bytes, pos: int, fields: Fields) -> Tuple[List, int]:
    """Read one value per declared field."""
    values = []
    for _name, codec in fields:
        value, pos = codec.read(data, pos)
        values.append(value)
    return values, pos


class RecordTable:
    """A vocabulary of tagged records: ``tag(1)`` -> (dataclass, fields).

    ``rows`` states each layout once; :meth:`write` and :meth:`read` drive
    it both ways as ``count(uvarint) (tag(1) field*)*`` closing the body.
    """

    def __init__(self, error: Type[Exception], noun: str, tag_noun: str,
                 rows: Dict[int, Tuple[type, Fields]]) -> None:
        self.error = error
        self.noun = noun
        self.tag_noun = tag_noun
        self.rows = rows
        self._by_type = {cls: (tag, fields)
                         for tag, (cls, fields) in rows.items()}

    def write(self, out: bytearray, records: Sequence) -> None:
        write_uvarint(out, len(records))
        for record in records:
            row = self._by_type.get(type(record))
            if row is None:
                raise self.error(f"unknown {self.noun} {record!r}")
            tag, fields = row
            out.append(tag)
            write_fields(out, fields,
                         [getattr(record, name) for name, _codec in fields])

    def read(self, body: bytes, pos: int) -> List:
        count, pos = read_uvarint(body, pos)
        records = []
        for _ in range(count):
            row = self.rows.get(body[pos])
            if row is None:
                raise self.error(f"unknown {self.tag_noun} {body[pos]}")
            cls, fields = row
            values, pos = read_fields(body, pos + 1, fields)
            records.append(cls(*values))
        if pos != len(body):
            raise self.error(f"{len(body) - pos} trailing bytes after the "
                             f"last {self.noun}")
        return records
