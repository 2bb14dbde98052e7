"""The cross-worker, cross-run shared cache store.

One :class:`SharedStore` backs both deterministic caches of the shared
execution engine:

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

:class:`SharedMeasurementCache` and :class:`SharedAnalyticBackend` are the
store-aware drop-ins for :class:`~repro.model.base.MeasurementCache` and
:class:`~repro.model.analytic.AnalyticBackend`.  Both keep their inherited
in-process structures as an L1 (no IPC on repeat lookups) and fall back to
the store as an L2, absorbing L2 hits into L1.  Both are additionally
thread-safe: every L1 access holds the instance's lock.
"""

from __future__ import annotations

import threading
from typing import Mapping, MutableMapping, Optional, Sequence

from repro.harmony.parameter import Configuration
from repro.lint import sanitizer as _san
from repro.model.analytic import AnalyticBackend, AnalyticSolution
from repro.model.base import Measurement, MeasurementCache, Scenario

__all__ = ["SharedStore", "SharedMeasurementCache", "SharedAnalyticBackend"]


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
        self.hits = 0
        self.misses = 0
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
        value = self._mapping().get(key)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def peek(self, key: tuple) -> Optional[object]:
        """Like :meth:`get` but without touching the hit/miss counters."""
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
                "hits": float(self.hits),
                "misses": float(self.misses),
                "attached": float(self._attached),
                "quarantined": float(self.quarantined),
            }

    def __len__(self) -> int:
        return len(self._data)


class SharedMeasurementCache(MeasurementCache):
    """A measurement memo with the shared store as its second level.

    L1 is the inherited in-process LRU; an L1 miss consults the store and
    absorbs any hit locally (counted as a hit *and* a ``shared_hit``).
    Stores publish to both levels.  Thread-safe: L1 reads and writes
    hold the cache lock.
    """

    def __init__(
        self, store: SharedStore, max_entries: Optional[int] = 100_000
    ) -> None:
        super().__init__(max_entries)
        self._shared = store
        self._lock = _san.wrap_lock(
            "SharedMeasurementCache._lock", threading.RLock()
        )

    def _insert(self, key: tuple, measurement: Measurement) -> None:
        # L1 writes must be serialized by the cache lock; the sanitizer
        # verifies the discipline holds on every path that reaches here.
        _san.expect_held(self._lock, "SharedMeasurementCache L1 insert")
        super()._insert(key, measurement)

    def lookup(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
        token: tuple = (),
    ) -> Optional[Measurement]:
        key = self.key(scenario, configuration, seed, token)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
        # Store probe outside the lock: it may be an IPC round-trip, and
        # a racing thread publishing the same key writes identical bytes.
        entry = self._shared.get(("meas", key))
        with self._lock:
            if entry is not None:
                if _san.active():
                    _san.check_coherent(
                        "measurement L1/L2", key, self._entries.get(key), entry
                    )
                self._hits += 1
                self._shared_hits += 1
                self._insert(key, entry)
                return entry
            self._misses += 1
            if key[:2] in self._config_seeds:
                self._seed_cold_misses += 1
            else:
                self._config_cold_misses += 1
        return None

    def store(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
        measurement: Measurement,
        token: tuple = (),
    ) -> None:
        key = self.key(scenario, configuration, seed, token)
        with self._lock:
            self._insert(key, measurement)
        self._shared.put(("meas", key), measurement)

    def clear(self) -> None:
        with self._lock:
            super().clear()


class SharedAnalyticBackend(AnalyticBackend):
    """An analytic backend whose solution memo spans workers and runs.

    The inherited per-process LRU stays as L1; misses consult the shared
    store and absorb hits (counted as solution ``shared_hits``).  Puts
    publish to both levels.  All memo accesses are lock-protected.
    """

    def __init__(self, store: SharedStore, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self._shared = store
        self._memo_lock = _san.wrap_lock(
            "SharedAnalyticBackend._memo_lock", threading.RLock()
        )

    # -- memo: L1 (inherited, locked) over L2 (store) -------------------
    def _solution_get(self, key: tuple) -> Optional[AnalyticSolution]:
        if self.solution_cache_size == 0:
            return None
        with self._memo_lock:
            sol = self._solution_cache.get(key)
            if sol is not None:
                self._solution_hits += 1
                self._solution_cache.move_to_end(key)
                return sol
        sol = self._shared.get(("sol", key))
        with self._memo_lock:
            if sol is None:
                self._solution_misses += 1
            else:
                if _san.active():
                    _san.check_coherent(
                        "solution L1/L2", key, self._solution_cache.get(key), sol
                    )
                self._solution_hits += 1
                self._solution_shared_hits += 1
                super()._solution_put(key, sol)
        return sol

    def _solution_peek(self, key: tuple) -> Optional[AnalyticSolution]:
        if self.solution_cache_size == 0:
            return None
        with self._memo_lock:
            sol = self._solution_cache.get(key)
        if sol is None:
            sol = self._shared.peek(("sol", key))
        return sol

    def _solution_put(self, key: tuple, solution: AnalyticSolution) -> None:
        if self.solution_cache_size == 0:
            return
        with self._memo_lock:
            super()._solution_put(key, solution)
        self._shared.put(("sol", key), solution)

    def export_solutions(self) -> list[tuple[tuple, AnalyticSolution]]:
        with self._memo_lock:
            return super().export_solutions()

    def absorb_solutions(
        self, items: Sequence[tuple[tuple, AnalyticSolution]]
    ) -> int:
        # Absorbed solutions go through _solution_put, so they are also
        # published to the store — a speculative worker's chunk becomes
        # visible to the whole fleet, not just this process.
        with self._memo_lock:
            return super().absorb_solutions(items)
