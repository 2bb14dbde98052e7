"""The cross-worker, cross-run shared cache store.

One :class:`SharedStore` is the second level of both deterministic memos
of the shared execution engine:

* the analytic backend's solution memo (``("sol", key)`` entries), and
* the measurement memo (``("meas", key)`` entries).

It starts as a plain in-process dict (the serial ``jobs=1`` engine path
needs no IPC) and is :meth:`attach`-ed to a ``multiprocessing.Manager``
dict proxy the moment a worker fleet spins up — existing entries migrate,
so warm-up work done serially seeds the fleet.  Every key is one of the
existing content-addressed fingerprint keys and every value is a
deterministic function of its key, which is what makes sharing safe:

* replication is idempotent — any writer writes the same bytes, so
  last-writer-wins races are invisible;
* the manager process serializes individual dict operations, so readers
  never observe a torn value;
* a hit is bit-identical to a recompute, so cache topology can never
  change results, only wall-clock time.

Both memos are :class:`~repro.model.base.ContentMemo` instances given
the store (``MeasurementCache(store=...)``, ``AnalyticBackend(store=...)``):
each keeps its in-process LRU as an L1 (no IPC on repeat lookups), falls
back to the store as an L2, and copies L2 hits into L1.  The memos count
their own store probes (``shared_hits`` and ``misses``), so the store
keeps no hit/miss counters of its own.
"""

from __future__ import annotations

import threading
from typing import Mapping, MutableMapping, Optional

from repro.lint import sanitizer as _san

__all__ = ["SharedStore"]


class SharedStore:
    """A content-addressed key/value store shared across workers and runs.

    Starts process-local; :meth:`attach` rebases it onto a cross-process
    mapping (a Manager dict proxy), migrating current contents.  Values
    must be deterministic per key — see the module docstring for why that
    makes every race benign.
    """

    def __init__(self, max_entries: int = 500_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._data: MutableMapping = {}
        self._lock = _san.wrap_lock("SharedStore._lock", threading.Lock())
        self._attached = False
        self.max_entries = max_entries
        self._puts = 0
        #: Corrupt persisted entries dropped on load (never served).
        self.quarantined = 0

    @property
    def attached(self) -> bool:
        """Whether the store is backed by a cross-process mapping."""
        return self._attached

    def attach(self, remote: MutableMapping) -> None:
        """Rebase onto a cross-process mapping, migrating local entries.

        Idempotent for the same mapping; attaching twice to different
        mappings is a caller bug (two fleets over one store) and raises.
        """
        with self._lock:
            if self._attached:
                if remote is self._data:
                    return
                raise RuntimeError("store is already attached to another mapping")
            if self._data:
                # One-time bootstrap migration under the lock: the fleet
                # is not running yet (attach precedes the first pooled
                # run), so nothing can contend on this RPC.
                remote.update(self._data)  # repro: noqa[RPL104]
            self._data = remote
            self._attached = True

    def preload(self, entries: Mapping) -> int:
        """Seed the store from a persisted snapshot (before any fleet).

        Used by :class:`~repro.durability.diskstore.StorePersistence` at
        engine bring-up; runs before :meth:`attach`, so this is a plain
        local-dict bulk insert.  Returns the number of entries adopted.
        """
        with self._lock:
            self._data.update(entries)
        return len(entries)

    def snapshot(self) -> dict:
        """A point-in-time copy of the backing mapping (for persistence).

        One bulk IPC round-trip when attached; entries are deterministic
        per key, so a copy racing writers is merely missing the newest
        entries, never torn.
        """
        return dict(self._mapping())

    def _mapping(self) -> MutableMapping:
        """A stable snapshot of the backing mapping for one operation.

        Reads/writes go through a snapshot taken under the lock, so an
        operation never sees ``self._data`` swap mid-flight; the IPC
        round-trip itself happens with the lock released.
        """
        with self._lock:
            return self._data

    def get(self, key: tuple) -> Optional[object]:
        """The stored value, or None.  One IPC round-trip when attached."""
        return self._mapping().get(key)

    def put(self, key: tuple, value: object) -> None:
        """Publish one entry (idempotent: values are deterministic per key).

        The write happens outside the lock (it may be an IPC round-trip),
        then the backing-mapping identity is re-checked: if :meth:`attach`
        rebased the store mid-write, the entry landed in the abandoned
        local dict *after* its contents migrated, so the write is
        replayed into the new mapping.  ``attach`` runs at most once, so
        the loop runs at most twice.

        The size guard is amortized: every 512 puts the store checks its
        length (an IPC round-trip when attached) and, past ``max_entries``,
        clears wholesale.  Dropping entries can never change results —
        only re-solve cost — and wholesale clearing avoids per-put LRU
        bookkeeping traffic through the manager.
        """
        while True:
            data = self._mapping()
            if _san.active():
                _san.check_coherent("SharedStore", key, data.get(key), value)
            data[key] = value
            with self._lock:
                self._puts += 1
                check = self._puts % 512 == 0
                rebased = self._data is not data
            if not rebased:
                break
        data = self._mapping()
        if check and len(data) > self.max_entries:
            data.clear()

    def stats(self) -> dict[str, float]:
        """Store-level counters (diagnostics for benchmarks and reports)."""
        with self._lock:
            return {
                "entries": float(len(self._data)),
                "attached": float(self._attached),
                "quarantined": float(self.quarantined),
            }

    def __len__(self) -> int:
        return len(self._data)
