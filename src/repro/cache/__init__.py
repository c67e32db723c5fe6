"""Cross-query caching for snapshot retrieval.

The DeltaGraph's retrieval cost is dominated by fetching and decoding deltas
from the key-value store; this package keeps decoded deltas in a shared,
size-bounded, thread-safe LRU cache so repeated and overlapping queries skip
the store entirely.  See :mod:`repro.cache.delta_cache` for the design notes
and ``DESIGN.md`` for how the cache slots into the retrieval plan lifecycle.
"""

from .delta_cache import DEFAULT_CACHE_BYTES, CacheStats, DeltaCache

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "CacheStats",
    "DeltaCache",
]
