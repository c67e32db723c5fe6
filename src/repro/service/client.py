"""Synchronous client of the query service.

:class:`ServiceClient` wraps one TCP connection (= one server session =
one reader lease) behind the manager-style API — ``get_snapshot``,
``get_snapshots``, ``get_interval``, ``scan``, ``ingest``, ``seal``,
``stats`` — decoding packed snapshot payloads back into
:class:`~repro.core.snapshot.GraphSnapshot` objects and re-raising relayed
failures as the typed exceptions of :mod:`repro.service.protocol`.

:meth:`ServiceClient.batch` amortizes round trips: queue several
operations, then :meth:`ServiceBatch.send` ships them as ONE frame and
returns the results in op order — K timepoints for the price of one
round trip (and, with :class:`GetSnapshotsOp`, one multipoint plan
server-side).
"""

from __future__ import annotations

import socket
from typing import Dict, List, Sequence

from ..core.events import Event
from ..core.snapshot import GraphSnapshot
from .protocol import (
    CountResult,
    ErrorResult,
    GetIntervalOp,
    GetSnapshotOp,
    GetSnapshotsOp,
    IngestOp,
    Operation,
    PingOp,
    PongResult,
    ProtocolError,
    Result,
    ScanOp,
    SealOp,
    SnapshotResult,
    SnapshotsResult,
    StatsOp,
    StatsResult,
    decode_response,
    encode_frame,
    encode_request,
    frame_length,
)

__all__ = ["ServiceBatch", "ServiceClient"]


class ServiceClient:
    """A blocking TCP client; one instance per thread.

    The connection's server-side session guarantees program order: a read
    issued after :meth:`ingest` returned observes the ingested events
    (read-your-writes).  Use as a context manager or call :meth:`close`,
    which also releases the server-side reader lease promptly instead of
    waiting for the TTL sweep.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_request_id = 1
        #: Wire accounting (benchmarks): bytes of frame bodies + prefixes.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests_sent = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def _recv_exactly(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def request(self, ops: Sequence[Operation]) -> List[Result]:
        """Send one batched request frame; return results in op order.

        A whole-request rejection (admission cap, protocol fault) raises
        its typed exception; per-op failures come back as
        :class:`~repro.service.protocol.ErrorResult` entries so one bad op
        does not discard its siblings' results.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        frame = encode_frame(encode_request(request_id, ops))
        self._sock.sendall(frame)
        self.bytes_sent += len(frame)
        self.requests_sent += 1
        prefix = self._recv_exactly(4)
        body = self._recv_exactly(frame_length(prefix))
        self.bytes_received += 4 + len(body)
        response_id, results = decode_response(body)
        if response_id != request_id:
            raise ProtocolError(f"response id {response_id} does not match "
                                f"request id {request_id}")
        return results

    def _one(self, op: Operation, expected: type) -> Result:
        result = self.request([op])[0]
        if isinstance(result, ErrorResult):
            raise result.exception()
        if not isinstance(result, expected):
            raise ProtocolError(f"unexpected result {result!r}")
        return result

    # ------------------------------------------------------------------
    # the manager-style API
    # ------------------------------------------------------------------

    def ping(self) -> None:
        self._one(PingOp(), PongResult)

    def get_snapshot(self, time: int, attr_options: str = "") -> GraphSnapshot:
        """``GetHistGraph`` over the wire."""
        result = self._one(GetSnapshotOp(time, attr_options), SnapshotResult)
        return result.snapshot()

    def get_snapshots(self, times: Sequence[int],
                      attr_options: str = "") -> List[GraphSnapshot]:
        """Multipoint retrieval: one frame, one server-side plan."""
        result = self._one(GetSnapshotsOp(tuple(times), attr_options), SnapshotsResult)
        return result.snapshots()

    def get_interval(self, start: int, end: int,
                     attr_options: str = "") -> GraphSnapshot:
        """Elements added in ``[start, end)`` plus transient events."""
        result = self._one(GetIntervalOp(start, end, attr_options),
                           SnapshotsResult)
        if not result.steps:
            raise ProtocolError(f"unexpected result {result!r}")
        return result.snapshots()[0]

    def scan(self, times: Sequence[int]) -> List[GraphSnapshot]:
        """Evolution scan: seed + delta replay server-side, one frame back."""
        result = self._one(ScanOp(tuple(times)), SnapshotsResult)
        return result.snapshots()

    def ingest(self, events: Sequence[Event]) -> int:
        """Append events through the serialized write path; returns count."""
        result = self._one(IngestOp(tuple(events)), CountResult)
        return result.value

    def seal(self, partial: bool = True) -> int:
        result = self._one(SealOp(partial), CountResult)
        return result.value

    def stats(self) -> Dict:
        """The server's aggregated ``stats_report()``."""
        result = self._one(StatsOp(), StatsResult)
        return result.report

    def batch(self) -> "ServiceBatch":
        """A builder that ships several operations in one frame."""
        return ServiceBatch(self)


class ServiceBatch:
    """Accumulates operations, sends them as one request frame.

    Methods mirror :class:`ServiceClient` and return ``self`` for
    chaining; :meth:`send` returns the raw result list in op order
    (snapshot-shaped entries expose ``.snapshot()`` / ``.snapshots()``).
    """

    def __init__(self, client: ServiceClient) -> None:
        self._client = client
        self._ops: List[Operation] = []

    def __len__(self) -> int:
        return len(self._ops)

    def ping(self) -> "ServiceBatch":
        self._ops.append(PingOp())
        return self

    def get_snapshot(self, time: int, attr_options: str = "") -> "ServiceBatch":
        self._ops.append(GetSnapshotOp(time, attr_options))
        return self

    def get_snapshots(self, times: Sequence[int],
                      attr_options: str = "") -> "ServiceBatch":
        self._ops.append(GetSnapshotsOp(tuple(times), attr_options))
        return self

    def get_interval(self, start: int, end: int,
                     attr_options: str = "") -> "ServiceBatch":
        self._ops.append(GetIntervalOp(start, end, attr_options))
        return self

    def scan(self, times: Sequence[int]) -> "ServiceBatch":
        self._ops.append(ScanOp(tuple(times)))
        return self

    def ingest(self, events: Sequence[Event]) -> "ServiceBatch":
        self._ops.append(IngestOp(tuple(events)))
        return self

    def seal(self, partial: bool = True) -> "ServiceBatch":
        self._ops.append(SealOp(partial))
        return self

    def stats(self) -> "ServiceBatch":
        self._ops.append(StatsOp())
        return self

    def send(self) -> List[Result]:
        """Ship the accumulated ops as one frame; results in op order."""
        ops, self._ops = self._ops, []
        return self._client.request(ops)
