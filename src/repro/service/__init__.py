"""Concurrent query service: a multi-client front-end over the managers.

The paper positions DeltaGraph as the index behind an interactive service
used by many analysts at once; this package is that front-end.  An asyncio
TCP server (:mod:`repro.service.server`) speaks a length-prefixed batched
wire protocol (:mod:`repro.service.protocol`) over a
:class:`~repro.query.managers.HistoryManager` /
:class:`~repro.query.managers.GraphManager`, with per-connection sessions
that hold generation-pinning reader leases
(:mod:`repro.service.session`), a single serialized ingest path with
read-your-writes visibility, and an admission controller enforcing a
max-concurrent-requests cap with round-robin fairness across sessions.
:class:`~repro.service.client.ServiceClient` is the synchronous client.

See DESIGN.md §11 for the wire format and the lease/generation protocol,
and docs/GUIDE.md ("Serve the index to concurrent clients") for a
doc-tested walkthrough.
"""

from .client import ServiceBatch, ServiceClient
from .protocol import AdmissionRejected, ProtocolError, RemoteError, ServiceError
from .server import ServiceServer
from .session import Lease, LeaseTable

__all__ = [
    "AdmissionRejected",
    "Lease",
    "LeaseTable",
    "ProtocolError",
    "RemoteError",
    "ServiceBatch",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
]
