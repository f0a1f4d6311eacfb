"""The bounded store behind the warm layer: budget, lock, stats.

A worker group keeps what it computed for one polymer to reuse on the
next (paper Sec. V-F, Fig. 2): integral intermediates
(`repro.integrals.workspace.IntegralWorkspace`, a `BoundedStore` plus
its products; converged densities are trajectory state instead, carried
by each fragment's `repro.calculators.FragmentRecord`). What a store
*is* lives here once:

* one LRU byte budget (``max_bytes``) over ``key -> payload`` entries
  whose size is what the payload actually keeps alive (`payload_nbytes`);
  it never evicts the key just stored. This is the only bound on the
  warm layer's memory: the largest store any workload fills holds well
  under 1% of the default budget (docs/PERFORMANCE.md);
* hits and misses are also attributed to the tenant that asked
  (``tenant_stats``);
* every entry and counter access is serialised by one `ContentionLock`,
  so a store can back the trajectory service's worker threads; payload
  *builds* happen outside it (duplicate builds are harmless — payloads
  are exact).

Which tenant a key belongs to is the one thing a subclass may redefine
(`BoundedStore._tenant_of`). This module imports nothing from the
package, so anything may import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np


class ContentionLock:
    """A re-entrant lock that counts the acquisitions that had to block.

    The count is taken *after* the blocking acquire, i.e. by the thread
    that then holds the lock, so two waiters cannot lose an update. A
    re-entrant acquire by the holder never blocks and is not counted.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: blocking acquisitions (another thread held the lock)
        self.contentions = 0

    def __enter__(self) -> "ContentionLock":
        if not self._lock.acquire(blocking=False):
            self._lock.acquire()
            self.contentions += 1
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def payload_nbytes(payload) -> int:
    """Actual bytes held alive by a cached payload.

    Walks arrays, dataclass-like objects, and the standard containers,
    deduplicating by object identity so arrays shared between entries of
    one payload (e.g. the scaffold tuples in `aux_groups`) are counted
    once. Replaces the hand-maintained per-call-site size expressions,
    which had drifted from the stored payloads (they under-counted the
    shell-pair tables and ignored container members entirely), skewing
    the LRU eviction order away from the actual memory footprint.
    """
    seen: set[int] = set()

    def walk(obj) -> int:
        oid = id(obj)
        if oid in seen:
            return 0
        seen.add(oid)
        if isinstance(obj, np.ndarray):
            # views/slices keep the whole base buffer alive
            base = obj.base if obj.base is not None else obj
            if id(base) in seen and base is not obj:
                return 0
            seen.add(id(base))
            return int(base.nbytes)
        if isinstance(obj, (list, tuple, set, frozenset)):
            return sum(walk(x) for x in obj)
        if isinstance(obj, dict):
            return sum(walk(v) for v in obj.values())
        fields = getattr(obj, "__dataclass_fields__", None)
        if fields is not None:
            return sum(walk(getattr(obj, name)) for name in fields)
        return 0

    return walk(payload)


class BoundedStore:
    """LRU byte-budgeted ``key -> payload`` store.

    ``enabled=False`` turns every lookup into a miss and stores nothing
    (statistics-only mode), so cold and warm runs can be instrumented
    identically. Subclasses add their products on top of `_get` / `_put`
    / `_discard` and extend `stats`; counters named in
    ``TENANT_COUNTERS`` are kept per tenant as well.
    """

    #: the counters every tenant's ``tenant_stats`` entry starts with
    TENANT_COUNTERS: tuple[str, ...] = ("hits", "misses")

    def __init__(self, max_bytes: int = 256 * 2**20,
                 enabled: bool = True) -> None:
        self.max_bytes = int(max_bytes)
        self.enabled = enabled
        #: key -> (payload, nbytes); LRU order, recent last
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._nbytes = 0
        self._lock = ContentionLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: per-tenant {tenant: {counter: n}} for `TENANT_COUNTERS`
        self.tenant_stats: dict[str, dict[str, int]] = {}

    def _tenant_of(self, key: tuple) -> str | None:
        """The tenant a lookup or store of ``key`` is charged to.

        Default: keys namespaced by a leading string
        (``(job_id, m0, m1, ...)``) belong to that tenant; any other
        key is anonymous — counted in no tenant's stats.
        """
        if key and isinstance(key[0], str):
            return key[0]
        return None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Current total payload size of the stored entries."""
        return self._nbytes

    @property
    def contentions(self) -> int:
        """Blocking lock acquisitions (another thread held the store)."""
        return self._lock.contentions

    def _count(self, name: str, tenant: str | None) -> None:
        """Bump counter ``name``, and ``tenant``'s copy of it (lock held)."""
        setattr(self, name, getattr(self, name) + 1)
        if tenant is not None:
            mine = self.tenant_stats.setdefault(
                tenant, dict.fromkeys(self.TENANT_COUNTERS, 0)
            )
            mine[name] += 1

    def _lookup(self, key: tuple):
        """The payload under ``key`` (refreshing its LRU position) or
        None, uncounted — `_get` is this plus the hit/miss accounting."""
        with self._lock:
            entry = self._entries.get(key) if self.enabled else None
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def _get(self, key: tuple):
        with self._lock:
            payload = self._lookup(key)
            self._count("misses" if payload is None else "hits",
                        self._tenant_of(key))
            return payload

    def _put(self, key: tuple, payload) -> None:
        if not self.enabled:
            return
        nbytes = payload_nbytes(payload)
        with self._lock:
            self._discard(key)
            self._entries[key] = (payload, nbytes)
            self._charge(nbytes)
            # least recently used first, never the entry just stored
            while self._nbytes > self.max_bytes and len(self._entries) > 1:
                self._discard(next(iter(self._entries)))
                self.evictions += 1

    def _discard(self, key: tuple) -> bool:
        """Drop one entry without counting an eviction; True if it was
        there."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._charge(-entry[1])
            return True

    def _charge(self, delta: int) -> None:
        """Adjust the resident-byte total by one entry (lock held)."""
        self._nbytes += delta

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def stats(self) -> dict:
        """Counters snapshot; a ``tenants`` block once any tenant has
        traffic."""
        with self._lock:
            out = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "contentions": self.contentions,
                "entries": len(self._entries),
                "nbytes": self._nbytes,
            }
            if self.tenant_stats:
                out["tenants"] = {k: dict(v) for k, v in
                                  sorted(self.tenant_stats.items())}
            return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._entries)}, "
            f"nbytes={self._nbytes}, hits={self.hits}, "
            f"misses={self.misses}, enabled={self.enabled})"
        )
