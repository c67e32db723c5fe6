"""Packed columnar codec for delta and eventlist payloads.

The default store codec pickles every value and zlib-compresses it.  Pickle
is generic but expensive: each :class:`~repro.core.delta.Delta` entry drags
tuple/dict framing and each :class:`~repro.core.events.Event` drags the
dataclass structure through the serializer, and the decoded byte volume is
what dominates retrieval cost on the paper's workloads.  This module packs
the two payload shapes the DeltaGraph actually stores into a compact
column-oriented binary format and falls back to pickle for everything else
(auxiliary-index deltas, exotic attribute values), so arbitrary payloads
keep working.

Byte layout
-----------
Every packed payload starts with a four-byte header::

    byte 0  magic      0xD7 (distinguishes packed data from pickle, which
                        starts with 0x80 for protocol >= 2, and from zlib
                        streams, which start with 0x78)
    byte 1  version    currently 1; decoders reject newer versions instead
                        of misreading them (forward compatibility)
    byte 2  kind       1 = delta, 2 = eventlist
    byte 3  flags      bit 0: body is zlib-compressed
                       bit 1: body is lzma-compressed (raw LZMA2 stream)

followed by the body.  Bodies of at least ``compress_threshold`` bytes are
compressed with whichever of zlib and raw LZMA2 is smaller (raw streams
avoid the ~60-byte xz container, which matters at delta-payload sizes);
smaller bodies are stored uncompressed.

A *delta* body holds the additions, removals, and changes sections in that
order.  Each section is **columnar**: for each of the four key kinds
(0 = node, 1 = edge, 2 = node attribute, 3 = edge attribute) it stores a
varint entry count, the element ids sorted ascending and delta-encoded
(zigzag varints — consecutive ids cost one byte), then for attribute kinds
the UTF-8 attribute names (length-prefixed, sorted with their ids), and
finally the values for the whole section grouped together, encoded with a
one-byte type tag: ``0`` None, ``1`` False, ``2`` True, ``3`` zigzag-varint
int, ``4`` 8-byte big-endian float, ``5`` UTF-8 string, ``6`` bytes, ``7``
pickled blob (the per-value escape hatch for arbitrary attribute payloads),
``8`` tuple and ``9`` list (length-prefixed, elements encoded recursively).
The changes section stores ``(old, new)`` value pairs interleaved.  Grouping
like-typed columns is what lets the compressor find structure pickle
scatters.

An *eventlist* body is a varint count followed by order-preserving columns:
the per-event type codes, the timestamps (first absolute, then
delta-encoded — eventlists are chronological, so deltas are tiny), the
per-event presence bitmasks (node_id, edge_id, src, dst, attr, old_value,
new_value, attributes, directed), then the present fields event by event:
ids as zigzag varints, attribute names length-prefixed, values as typed
values, and ``attributes`` payloads as a varint count of ``(name, value)``
pairs.

Whole-payload fallback: values that are not a ``Delta`` or a list of
``Event`` — or whose keys do not fit the schema — are pickled (and zlib
compressed above the same threshold), exactly like
:class:`~repro.storage.compression.CompressedCodec` would store them.  The
decoder sniffs the first byte, so one store can hold a mix of packed,
pickled, and zlib-pickled records (e.g. after switching codecs).
"""

from __future__ import annotations

import lzma
import pickle
import struct
import zlib
from typing import Dict, List, Tuple

from ..errors import StorageError
from .compression import Codec

__all__ = [
    "PACKED_MAGIC",
    "PACKED_VERSION",
    "PackedCodec",
    "read_str",
    "read_uvarint",
    "read_varint",
    "write_str",
    "write_uvarint",
    "write_varint",
]

PACKED_MAGIC = 0xD7
PACKED_VERSION = 1

_KIND_DELTA = 1
_KIND_EVENTS = 2

_FLAG_ZLIB = 0x01
_FLAG_LZMA = 0x02

#: Filter chain for raw LZMA2 streams (must match between encode/decode).
_LZMA_FILTERS = ({"id": lzma.FILTER_LZMA2, "preset": 6},)

#: LZMA is only attempted on bodies at least this large: below it the
#: stream overhead eats the gain and zlib alone is the right answer, and
#: skipping the (~10x slower) LZMA call keeps small-delta writes cheap.
_LZMA_THRESHOLD = 512

# Element-key kind bytes (order is part of the format — never reorder).
_KEY_KINDS = ("N", "E", "NA", "EA")
_KEY_CODE = {kind: code for code, kind in enumerate(_KEY_KINDS)}

# Value type tags.
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_BYTES = 6
_V_PICKLE = 7
_V_TUPLE = 8
_V_LIST = 9

_FLOAT = struct.Struct(">d")

# Event type codes (order is part of the format — never reorder).
_EVENT_TYPE_VALUES = ("NN", "DN", "NE", "DE", "UNA", "UEA", "TN", "TE")

# Event field presence bits.
_F_NODE_ID = 0x01
_F_EDGE_ID = 0x02
_F_SRC = 0x04
_F_DST = 0x08
_F_ATTR = 0x10
_F_OLD = 0x20
_F_NEW = 0x40
_F_ATTRIBUTES = 0x80
_F_DIRECTED = 0x100


class _Unpackable(Exception):
    """Raised internally when a value does not fit the packed schema."""


# ---------------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------------

def write_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def write_varint(out: bytearray, value: int) -> None:
    """Zigzag-encoded signed varint (small magnitudes stay small)."""
    write_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)


def read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = read_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def write_str(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    write_uvarint(out, len(encoded))
    out.extend(encoded)


def read_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    return data[pos:pos + length].decode("utf-8"), pos + length


# ---------------------------------------------------------------------------
# typed values
# ---------------------------------------------------------------------------

def _write_value(out: bytearray, value: object) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is False:
        out.append(_V_FALSE)
    elif value is True:
        out.append(_V_TRUE)
    elif type(value) is int:
        out.append(_V_INT)
        write_varint(out, value)
    elif type(value) is float:
        out.append(_V_FLOAT)
        out.extend(_FLOAT.pack(value))
    elif type(value) is str:
        out.append(_V_STR)
        write_str(out, value)
    elif type(value) is bytes:
        out.append(_V_BYTES)
        write_uvarint(out, len(value))
        out.extend(value)
    elif type(value) is tuple:
        out.append(_V_TUPLE)
        write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif type(value) is list:
        out.append(_V_LIST)
        write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    else:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_V_PICKLE)
        write_uvarint(out, len(blob))
        out.extend(blob)


def _read_value(data: bytes, pos: int) -> Tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_INT:
        return read_varint(data, pos)
    if tag == _V_FLOAT:
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _V_STR:
        return read_str(data, pos)
    if tag == _V_BYTES:
        length, pos = read_uvarint(data, pos)
        return bytes(data[pos:pos + length]), pos + length
    if tag == _V_PICKLE:
        length, pos = read_uvarint(data, pos)
        return pickle.loads(data[pos:pos + length]), pos + length
    if tag in (_V_TUPLE, _V_LIST):
        length, pos = read_uvarint(data, pos)
        items = []
        for _ in range(length):
            item, pos = _read_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _V_TUPLE else items), pos
    raise StorageError(f"unknown packed value tag {tag}")


# ---------------------------------------------------------------------------
# delta body (columnar sections)
# ---------------------------------------------------------------------------

def _sorted_section_keys(section: Dict) -> List[List[tuple]]:
    """Section keys bucketed by kind code, each bucket sorted ascending."""
    buckets: List[List[tuple]] = [[], [], [], []]
    for key in section:
        if type(key) is not tuple or not key:
            raise _Unpackable
        code = _KEY_CODE.get(key[0])
        if code is None or type(key[1]) is not int:
            raise _Unpackable
        if code <= 1:
            if len(key) != 2:
                raise _Unpackable
        elif len(key) != 3 or type(key[2]) is not str:
            raise _Unpackable
        buckets[code].append(key)
    for bucket in buckets:
        bucket.sort(key=lambda k: (k[1], k[2]) if len(k) > 2 else (k[1], ""))
    return buckets


def _write_section_keys(out: bytearray, buckets: List[List[tuple]]) -> None:
    for code, bucket in enumerate(buckets):
        write_uvarint(out, len(bucket))
        previous = 0
        for key in bucket:
            write_varint(out, key[1] - previous)
            previous = key[1]
        if code >= 2:
            for key in bucket:
                write_str(out, key[2])


def _read_section_keys(data: bytes, pos: int) -> Tuple[List[tuple], int]:
    keys: List[tuple] = []
    for code in range(4):
        count, pos = read_uvarint(data, pos)
        ids = []
        previous = 0
        for _ in range(count):
            delta, pos = read_varint(data, pos)
            previous += delta
            ids.append(previous)
        kind = _KEY_KINDS[code]
        if code >= 2:
            for element_id in ids:
                attr, pos = read_str(data, pos)
                keys.append((kind, element_id, attr))
        else:
            keys.extend((kind, element_id) for element_id in ids)
    return keys, pos


def _pack_delta(delta) -> bytearray:
    out = bytearray()
    for section in (delta.additions, delta.removals):
        buckets = _sorted_section_keys(section)
        _write_section_keys(out, buckets)
        for bucket in buckets:
            for key in bucket:
                _write_value(out, section[key])
    buckets = _sorted_section_keys(delta.changes)
    _write_section_keys(out, buckets)
    for bucket in buckets:
        for key in bucket:
            pair = delta.changes[key]
            if type(pair) is not tuple or len(pair) != 2:
                raise _Unpackable
            _write_value(out, pair[0])
            _write_value(out, pair[1])
    return out


def _unpack_delta(data: bytes, pos: int):
    from ..core.delta import Delta

    sections: List[Dict] = []
    for _ in range(2):
        keys, pos = _read_section_keys(data, pos)
        section: Dict[tuple, object] = {}
        for key in keys:
            value, pos = _read_value(data, pos)
            section[key] = value
        sections.append(section)
    keys, pos = _read_section_keys(data, pos)
    changes: Dict[tuple, Tuple[object, object]] = {}
    for key in keys:
        old, pos = _read_value(data, pos)
        new, pos = _read_value(data, pos)
        changes[key] = (old, new)
    return Delta(sections[0], sections[1], changes)


# ---------------------------------------------------------------------------
# eventlist body (order-preserving columns)
# ---------------------------------------------------------------------------

def _pack_events(events) -> bytearray:
    from ..core.events import Event

    out = bytearray()
    write_uvarint(out, len(events))
    flag_list: List[int] = []
    # Column 1: type codes.
    for event in events:
        if type(event) is not Event:
            raise _Unpackable
        out.append(_EVENT_TYPE_VALUES.index(event.type.value))
    # Column 2: delta-encoded timestamps.
    previous_time = 0
    for event in events:
        if type(event.time) is not int:
            raise _Unpackable
        write_varint(out, event.time - previous_time)
        previous_time = event.time
    # Column 3: presence bitmasks.
    for event in events:
        flags = 0
        if event.node_id is not None:
            flags |= _F_NODE_ID
        if event.edge_id is not None:
            flags |= _F_EDGE_ID
        if event.src is not None:
            flags |= _F_SRC
        if event.dst is not None:
            flags |= _F_DST
        if event.attr is not None:
            flags |= _F_ATTR
        if event.old_value is not None:
            flags |= _F_OLD
        if event.new_value is not None:
            flags |= _F_NEW
        if event.attributes:
            flags |= _F_ATTRIBUTES
        if event.directed:
            flags |= _F_DIRECTED
        flag_list.append(flags)
        write_uvarint(out, flags)
    # Column 4: present id fields.
    for event, flags in zip(events, flag_list):
        for present, field in ((flags & _F_NODE_ID, event.node_id),
                               (flags & _F_EDGE_ID, event.edge_id),
                               (flags & _F_SRC, event.src),
                               (flags & _F_DST, event.dst)):
            if present:
                if type(field) is not int:
                    raise _Unpackable
                write_varint(out, field)
    # Column 5: attribute names.
    for event, flags in zip(events, flag_list):
        if flags & _F_ATTR:
            if type(event.attr) is not str:
                raise _Unpackable
            write_str(out, event.attr)
    # Column 6: values and attribute payloads.
    for event, flags in zip(events, flag_list):
        if flags & _F_OLD:
            _write_value(out, event.old_value)
        if flags & _F_NEW:
            _write_value(out, event.new_value)
        if flags & _F_ATTRIBUTES:
            attributes = event.attributes
            if type(attributes) is not tuple:
                raise _Unpackable
            write_uvarint(out, len(attributes))
            for pair in attributes:
                if (type(pair) is not tuple or len(pair) != 2
                        or type(pair[0]) is not str):
                    raise _Unpackable
                write_str(out, pair[0])
                _write_value(out, pair[1])
    return out


def _unpack_events(data: bytes, pos: int) -> list:
    from ..core.events import Event, EventType

    count, pos = read_uvarint(data, pos)
    types = [EventType(_EVENT_TYPE_VALUES[data[pos + i]])
             for i in range(count)]
    pos += count
    times: List[int] = []
    previous_time = 0
    for _ in range(count):
        delta, pos = read_varint(data, pos)
        previous_time += delta
        times.append(previous_time)
    flag_list: List[int] = []
    for _ in range(count):
        flags, pos = read_uvarint(data, pos)
        flag_list.append(flags)
    ids: List[Tuple] = []
    for flags in flag_list:
        fields = []
        for bit in (_F_NODE_ID, _F_EDGE_ID, _F_SRC, _F_DST):
            if flags & bit:
                value, pos = read_varint(data, pos)
                fields.append(value)
            else:
                fields.append(None)
        ids.append(tuple(fields))
    attrs: List = [None] * count
    for index, flags in enumerate(flag_list):
        if flags & _F_ATTR:
            attrs[index], pos = read_str(data, pos)
    events: List[Event] = []
    for index, flags in enumerate(flag_list):
        old_value = new_value = None
        if flags & _F_OLD:
            old_value, pos = _read_value(data, pos)
        if flags & _F_NEW:
            new_value, pos = _read_value(data, pos)
        attributes: tuple = ()
        if flags & _F_ATTRIBUTES:
            n_attrs, pos = read_uvarint(data, pos)
            pairs = []
            for _ in range(n_attrs):
                name, pos = read_str(data, pos)
                value, pos = _read_value(data, pos)
                pairs.append((name, value))
            attributes = tuple(pairs)
        node_id, edge_id, src, dst = ids[index]
        events.append(Event(
            types[index], times[index], node_id=node_id, edge_id=edge_id,
            src=src, dst=dst, directed=bool(flags & _F_DIRECTED),
            attr=attrs[index], old_value=old_value, new_value=new_value,
            attributes=attributes))
    return events


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------

class PackedCodec(Codec):
    """Struct-packed columnar codec for delta/eventlist payloads.

    Parameters
    ----------
    level:
        zlib compression level for bodies above the threshold.
    compress_threshold:
        Bodies of at least this many bytes are compressed (with whichever of
        zlib and raw LZMA2 comes out smaller); smaller ones are stored raw —
        the compression overhead exceeds the saving.

    Select it per store (``DiskKVStore(path, codec=PackedCodec())``) or
    through the index configuration
    (``DeltaGraph.build(events, codec="packed")``).  Decoding sniffs the
    payload's first byte, so a store written with the pickle codecs can be
    read back through a ``PackedCodec`` (the reverse is the only unsafe
    direction).
    """

    def __init__(self, level: int = 6, compress_threshold: int = 128) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "compress_threshold", compress_threshold)

    # -- encode --------------------------------------------------------

    def encode(self, value: object) -> bytes:
        from ..core.delta import Delta

        body = kind = None
        try:
            if type(value) is Delta:
                body, kind = _pack_delta(value), _KIND_DELTA
            elif type(value) is list:
                body, kind = _pack_events(value), _KIND_EVENTS
        except _Unpackable:
            body = None
        if body is None:
            return self._encode_fallback(value)
        body = bytes(body)
        flags = 0
        if len(body) >= self.compress_threshold:
            # Compression is a write-once cost paid at construction; on the
            # read path only the winning stream is ever decompressed.
            zlib_body = zlib.compress(body, self.level)
            lzma_body = (lzma.compress(body, format=lzma.FORMAT_RAW,
                                       filters=_LZMA_FILTERS)
                         if len(body) >= _LZMA_THRESHOLD else None)
            if lzma_body is not None and len(lzma_body) < len(zlib_body):
                if len(lzma_body) < len(body):
                    body, flags = lzma_body, _FLAG_LZMA
            elif len(zlib_body) < len(body):
                body, flags = zlib_body, _FLAG_ZLIB
        return bytes(bytearray((PACKED_MAGIC, PACKED_VERSION, kind, flags))
                     ) + body

    def _encode_fallback(self, value: object) -> bytes:
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if len(raw) >= self.compress_threshold:
            return zlib.compress(raw, self.level)
        return raw

    # -- decode --------------------------------------------------------

    def decode(self, payload: bytes) -> object:
        first = payload[0] if payload else None
        if first != PACKED_MAGIC:
            # Pickle protocol >= 2 starts with 0x80; anything else is
            # assumed to be a zlib stream produced by the fallback path or
            # by the plain compressed codec.
            if first == 0x80:
                return pickle.loads(payload)
            return pickle.loads(zlib.decompress(payload))
        version, kind, flags = payload[1], payload[2], payload[3]
        if version > PACKED_VERSION:
            raise StorageError(
                f"packed payload version {version} is newer than this "
                f"codec (supports <= {PACKED_VERSION})")
        body = payload[4:]
        if flags & _FLAG_LZMA:
            body = lzma.decompress(body, format=lzma.FORMAT_RAW,
                                   filters=_LZMA_FILTERS)
        elif flags & _FLAG_ZLIB:
            body = zlib.decompress(body)
        if kind == _KIND_DELTA:
            return _unpack_delta(body, 0)
        if kind == _KIND_EVENTS:
            return _unpack_events(body, 0)
        raise StorageError(f"unknown packed payload kind {kind}")
