"""Cross-query delta cache.

The paper identifies delta fetches from persistent storage as the dominant
cost of snapshot retrieval (Section 4.3) and attacks it with materialization
and multi-query plans.  The :class:`DeltaCache` attacks the same cost from a
third direction: consecutive queries — even from different users — share most
of their path to the super-root, so the deltas fetched for one query almost
always serve the next.  The cache therefore sits between the
:class:`~repro.core.deltagraph.DeltaGraph` and its
:class:`~repro.storage.kvstore.KVStore` and retains *decoded* store values
across queries.

Two granularities share one byte budget:

* **raw entries** — one per storage key ``partition/delta_id/component``,
  exactly what a :meth:`KVStore.get` returns (a columnar
  :class:`~repro.core.delta.Delta` piece or an event list).  These are what
  the plan-prefetch pass populates in bulk;
* **assembled entries** — the merged delta / sorted event list for a whole
  ``(delta_id, components, partitions)`` combination, saving the per-query
  merge work on fully warm paths.

Entries carry a *group* (the owning ``delta_id``) so that re-writing a delta
invalidates every cached granularity of it at once.  Negative results (keys
absent from the store) are cached too — a DeltaGraph probes many
(partition, component) keys that were never written because the piece was
empty.

The cache is thread-safe (one reentrant lock around every operation), bounded
by *bytes* rather than entry count — delta and event-list sizes are estimated
structurally (entry counts times calibrated constants; unknown shapes fall
back to the pickle-based accounting the storage instrumentation uses) — and
exposes hit/miss/eviction counters through :meth:`DeltaCache.stats`.  It
evicts the least recently used entry first: consecutive snapshot queries
slide along the timeline, so the deltas a query just touched are the ones
its neighbours want next.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from ..errors import ConfigurationError

__all__ = ["CacheStats", "DeltaCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget: generous for the scaled-down experiment datasets,
#: small next to the multi-GB indexes the paper targets.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


#: Calibrated per-entry serialized-size estimates (see _default_sizer).
_DELTA_ENTRY_BYTES = 40
_EVENT_BYTES = 80


def _default_sizer(value: object) -> int:
    """Approximate serialized size of a value in bytes.

    The cache sits on the hot miss path, so the common payload shapes —
    deltas and event lists — are estimated structurally (entry count times a
    calibrated constant) instead of being re-pickled just to count bytes;
    serializing a value the store only just deserialized would cost about as
    much as the fetch the cache exists to avoid.  Unrecognized values fall
    back to pickle, matching the accounting of
    :func:`repro.storage.instrumented._approx_size`.
    """
    if value is None:
        return 1
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    # Lazy import: repro.core imports this module at package-init time.
    from ..core.delta import Delta
    if isinstance(value, Delta):
        return 64 + _DELTA_ENTRY_BYTES * len(value)
    if isinstance(value, (list, tuple)):
        return 64 + _EVENT_BYTES * len(value)
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable values
        return 64


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    invalidations: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            insertions=self.insertions - other.insertions,
            invalidations=self.invalidations - other.invalidations,
            entries=self.entries, current_bytes=self.current_bytes,
            max_bytes=self.max_bytes)


class DeltaCache:
    """Thread-safe, byte-bounded cache of decoded store values.

    Parameters
    ----------
    max_bytes:
        Byte budget; inserting past it evicts least recently used entries
        until the new entry fits.  Values larger than the whole budget are
        never cached.
    sizer:
        Optional ``value -> bytes`` override for size accounting.

    Example
    -------
    >>> cache = DeltaCache(max_bytes=1 << 20)
    >>> index = DeltaGraph.build(events, store=store, cache=cache)
    >>> index.get_snapshot(t1); index.get_snapshot(t2)
    >>> cache.stats().hit_rate        # doctest: +SKIP
    0.93
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES,
                 sizer: Optional[Callable[[object], int]] = None) -> None:
        if max_bytes < 1:
            raise ConfigurationError("cache max_bytes must be >= 1")
        self.max_bytes = int(max_bytes)
        self._sizer = sizer if sizer is not None else _default_sizer
        #: key -> (value, size, group), least recently used first.  An
        #: OrderedDict rather than a dict with pop-and-reinsert: after many
        #: deletions at the front, ``next(iter(dict))`` scans dead slots.
        self._entries: "OrderedDict[str, Tuple[object, int, Optional[str]]]" \
            = OrderedDict()
        #: group -> keys currently cached under it
        self._groups: Dict[str, Set[str]] = {}
        self._current_bytes = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._insertions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, object]:
        """``(found, value)`` for ``key``; distinguishes cached ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return False, None
            self._hits += 1
            self._entries.move_to_end(key)
            return True, entry[0]

    def get(self, key: str, default: object = None) -> object:
        """The cached value, or ``default`` when ``key`` is not cached."""
        found, value = self.lookup(key)
        return value if found else default

    def get_many(self, keys: Iterable[str]) -> Dict[str, object]:
        """Cached values for the subset of ``keys`` that are present."""
        out: Dict[str, object] = {}
        with self._lock:
            for key in keys:
                found, value = self.lookup(key)
                if found:
                    out[key] = value
        return out

    def contains(self, key: str) -> bool:
        """Whether ``key`` is cached (without counting a hit or miss)."""
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # insertion / eviction
    # ------------------------------------------------------------------

    def put(self, key: str, value: object, size: Optional[int] = None,
            group: Optional[str] = None) -> bool:
        """Insert (or refresh) ``key``; returns whether it was cached.

        ``size`` overrides the sizer's byte estimate (callers that know the
        on-disk payload size pass it through).  ``group`` associates the
        entry with an invalidation group — the DeltaGraph uses the owning
        ``delta_id`` so a re-written delta drops all its cached pieces.
        A refresh too large to cache still drops the old value (counted as
        an invalidation), so the key never reads back stale.
        """
        nbytes = max(1, int(size) if size is not None else self._sizer(value))
        with self._lock:
            if nbytes > self.max_bytes:
                self._remove(key, count_invalidation=True)
                return False
            if key in self._entries:
                self._remove(key, count_invalidation=False)
            while self._current_bytes + nbytes > self.max_bytes:
                victim = next(iter(self._entries))
                self._remove(victim, count_invalidation=False)
                self._evictions += 1
            self._entries[key] = (value, nbytes, group)
            self._current_bytes += nbytes
            if group is not None:
                self._groups.setdefault(group, set()).add(key)
            self._insertions += 1
            return True

    def _remove(self, key: str, count_invalidation: bool) -> None:
        value_size_group = self._entries.pop(key, None)
        if value_size_group is None:
            return
        _value, nbytes, group = value_size_group
        self._current_bytes -= nbytes
        if group is not None:
            keys = self._groups.get(group)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._groups[group]
        if count_invalidation:
            self._invalidations += 1

    def invalidate(self, key: str) -> None:
        """Drop one key if cached."""
        with self._lock:
            self._remove(key, count_invalidation=True)

    def discard(self, key: str) -> None:
        """Drop one key without counting an invalidation.

        Used when an entry is *superseded* rather than stale — e.g. raw
        delta pieces once the assembled entry covering them is inserted —
        so the invalidation counter keeps meaning "data changed".
        """
        with self._lock:
            self._remove(key, count_invalidation=False)

    def invalidate_group(self, group: str) -> int:
        """Drop every entry cached under ``group``; returns how many."""
        with self._lock:
            keys = list(self._groups.get(group, ()))
            for key in keys:
                self._remove(key, count_invalidation=True)
            return len(keys)

    def invalidate_groups(self, groups: Iterable[str]) -> int:
        """Drop every entry cached under any of ``groups``; returns how many.

        One lock acquisition for the whole batch — this is the entry point
        the DeltaGraph's incremental-maintenance purge uses when it retires a
        generation of provisional deltas.
        """
        with self._lock:
            total = 0
            for group in groups:
                keys = list(self._groups.get(group, ()))
                for key in keys:
                    self._remove(key, count_invalidation=True)
                total += len(keys)
            return total

    def clear(self) -> None:
        """Drop everything (counters are preserved; see :meth:`reset_stats`)."""
        with self._lock:
            for key in list(self._entries):
                self._remove(key, count_invalidation=True)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Current counters as an immutable :class:`CacheStats`."""
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, insertions=self._insertions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (contents are kept)."""
        with self._lock:
            self._hits = self._misses = 0
            self._evictions = self._insertions = self._invalidations = 0

    def current_bytes(self) -> int:
        """Bytes currently charged against the budget."""
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"DeltaCache(entries={s.entries}, bytes={s.current_bytes}/"
                f"{s.max_bytes}, hit_rate={s.hit_rate:.2f})")
