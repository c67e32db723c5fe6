"""Time-sharded index federation: era-sharded DeltaGraphs + query router.

The timeline is cut into consecutive *eras* by a
:class:`~repro.sharding.policy.ShardPolicy`; each era is an independent,
parallel-buildable :class:`~repro.sharding.shard.EraShard` (DeltaGraph +
store + cache namespace + ``[t_lo, t_hi)`` metadata), and the
:class:`~repro.sharding.federation.ShardedHistoryIndex` routes queries,
fans multipoint point-sets out per shard, and rolls the live tail over into
new eras as traffic arrives.  See DESIGN.md §9.
"""

from .federation import ShardedHistoryIndex
from .policy import (
    EventCountPolicy,
    ExplicitBoundariesPolicy,
    ShardPolicy,
    TimeSpanPolicy,
)
from .shard import EraShard
from .workers import (
    ShardWorker,
    WorkerCrashed,
    WorkerError,
    WorkerProtocolError,
    WorkerTimeout,
)

__all__ = [
    "EraShard",
    "EventCountPolicy",
    "ExplicitBoundariesPolicy",
    "ShardPolicy",
    "ShardWorker",
    "ShardedHistoryIndex",
    "TimeSpanPolicy",
    "WorkerCrashed",
    "WorkerError",
    "WorkerProtocolError",
    "WorkerTimeout",
]
