"""The persistent shared-cache execution engine (``--engine shared``).

The only pooled engine.  One :class:`SharedEngine` lives for a whole CLI
invocation, so pool spawn and cold caches are paid once, not per run:

* **A worker fleet that outlives runs.**  The ``ProcessPoolExecutor`` is
  created on first pooled run and reused by every later run (grown, never
  shrunk, when a run asks for more workers).  Workers are initialized
  once with a handle to the shared store, so their persistent backends
  keep their L1 caches across runs.
* **A cross-process, cross-run cache.**  One
  :class:`~repro.parallel.store.SharedStore` (rebased onto a
  ``multiprocessing.Manager`` dict when the fleet starts) backs the
  solution and measurement memos of the parent *and* every worker: a
  configuration solved anywhere is a hit everywhere, including in later
  experiments of the same invocation.
* **A serial in-process path.**  ``jobs=1`` plans (and plans nested
  inside a fleet worker) run spec by spec in plan order over the same
  persistent backend, so they reuse everything earlier runs cached.

Everything cached is deterministic and content-addressed, so the engine
preserves the executor's bit-identity contract at every jobs setting.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Hashable, Iterator, Optional, Sequence

from repro.faults.engine import (
    EngineFaultInjector,
    FleetUnavailableError,
    active_injector,
)
from repro.lint import sanitizer as _san
from repro.model.base import MemoizedBackend
from repro.parallel.plan import RunSpec
from repro.parallel.stats import CacheStatsCapture, track_backend
from repro.parallel.store import (
    SharedAnalyticBackend,
    SharedMeasurementCache,
    SharedStore,
)

__all__ = [
    "ENGINES",
    "FleetUnavailableError",
    "plan_chunksize",
    "resolve_engine",
    "run_serial",
    "SharedEngine",
]

#: The ``--engine`` axis.  ``inline`` = always in-process and serial
#: (jobs is ignored), ``shared`` = this module's persistent fleet +
#: shared cache (serial in-process over the same cache at jobs=1).
ENGINES = ("inline", "shared")


def resolve_engine(engine: Optional[str], jobs: int) -> str:
    """Normalize an ``--engine`` value.

    An explicit engine wins; None means ``shared`` when ``jobs > 1`` and
    ``inline`` otherwise.
    """
    if engine is None:
        return "shared" if jobs > 1 else "inline"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def plan_chunksize(num_specs: int, workers: int) -> int:
    """An explicit ``pool.map`` chunksize for a plan.

    The default (1) pays one pickle/dispatch round-trip per spec, which
    dominates for cheap specs.  Four chunks per worker keeps dispatch
    overhead amortized while still letting finish-order stragglers
    rebalance; the formula is the stdlib multiprocessing heuristic.
    """
    return max(1, num_specs // (workers * 4))


def run_serial(
    specs: Sequence[RunSpec],
) -> Iterator[tuple[Hashable, Any, Optional[dict]]]:
    """Execute specs in plan order in this process.

    Yields ``(key, value, cache-counter delta)`` as each spec finishes,
    so callers can commit (and journal) results as they stream in.
    """
    for spec in specs:
        with CacheStatsCapture() as capture:
            value = spec.execute()
        yield spec.key, value, capture.delta()


def _fleet_execute(spec: RunSpec) -> tuple[Hashable, Any, Optional[dict], list]:
    """Fleet worker entry point: one spec plus its cache-counter delta.

    The fourth element ships the worker-side sanitizer findings home (an
    empty list when the sanitizer is off): each worker process runs its
    own sanitizer, and findings that stay in a worker die with it.
    """
    key, value, delta = next(run_serial([spec]))
    return key, value, delta, _san.take_findings()


def _init_fleet_worker(remote: Any) -> None:
    """Fleet worker initializer: adopt the shared store, build the backend.

    Runs once per worker process (not per task).  The worker's engine
    singleton is marked as a worker so a spec that itself constructs a
    ``ParallelExecutor`` degrades to in-process execution instead of
    forking a fleet of its own.
    """
    engine = SharedEngine._instance = SharedEngine(worker=True)
    engine.store.attach(remote)
    engine.backend()  # warm eagerly: every spec shares this one


class SharedEngine:
    """Process-wide singleton owning the fleet, the store and the backends."""

    _instance: Optional["SharedEngine"] = None
    # Class-level by necessity: it guards singleton creation itself, is
    # held only for pointer swaps, and module import precedes any fork.
    _instance_lock = threading.Lock()  # repro: noqa[RPL106]
    #: Directory for durable store segments (``--store-path``); set via
    #: :meth:`configure` before the singleton is built.
    _store_path: Optional[str] = None

    @classmethod
    def instance(cls) -> "SharedEngine":
        """The invocation's engine (created on first use)."""
        with cls._instance_lock:
            if cls._instance is None:
                cls._instance = cls()
            return cls._instance

    @classmethod
    def configure(cls, store_path: Optional[str] = None) -> None:
        """Set invocation-wide engine options before first use.

        ``store_path`` points the shared store at a durable segment
        directory (:class:`~repro.durability.diskstore.StorePersistence`):
        persisted entries are adopted at bring-up, new entries are
        flushed after every run and at shutdown.  Must be called before
        the singleton exists; :meth:`reset` clears it.
        """
        with cls._instance_lock:
            if cls._instance is not None and cls._store_path != store_path:
                raise RuntimeError(
                    "SharedEngine.configure must run before the engine is "
                    "built (call SharedEngine.reset() first)"
                )
            cls._store_path = store_path

    @classmethod
    def reset(cls) -> None:
        """Tear down the singleton (tests; end of invocation)."""
        with cls._instance_lock:
            engine, cls._instance = cls._instance, None
            cls._store_path = None
        if engine is not None:
            engine.shutdown()

    def __init__(self, worker: bool = False) -> None:
        self.store = SharedStore()
        self._worker = worker
        # Durable store bring-up (parent only: workers reach the same
        # entries through the Manager dict; the parent does the flushing).
        self.persistence = None
        if not worker and SharedEngine._store_path is not None:
            from repro.durability.diskstore import StorePersistence

            self.persistence = StorePersistence(SharedEngine._store_path)
            entries = self.persistence.load()
            if entries:
                self.store.preload(entries)
            self.store.quarantined += self.persistence.quarantined
        # Reentrant: backend() may be reached from a path already holding
        # the lock (e.g. fleet bring-up warming the backend).
        self._lock = _san.wrap_lock("SharedEngine._lock", threading.RLock())
        self._backend: Optional[MemoizedBackend] = None
        self._manager = None
        self._remote = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: Diagnostics: runs served.
        self.runs = 0

    # -- backends --------------------------------------------------------
    def backend(self) -> MemoizedBackend:
        """The persistent store-backed backend (built once, shared by all).

        Thread-safe and reused across experiments; drivers get it from
        :func:`repro.experiments.runner.make_backend` when the config's
        engine is ``shared``.  Double-checked: the unlocked fast path
        serves the common already-built case, the locked re-check makes
        first-build unique (two racing builders would otherwise register
        two backends with the stats tracker and split L1 caches).
        """
        if self._backend is None:
            with self._lock:
                if self._backend is None:
                    inner = SharedAnalyticBackend(self.store)
                    backend = MemoizedBackend(
                        inner, cache=SharedMeasurementCache(self.store)
                    )
                    track_backend(backend)
                    self._backend = backend
        return self._backend

    # -- execution -------------------------------------------------------
    def run(
        self,
        specs: Sequence[RunSpec],
        jobs: int,
        faults: Optional[EngineFaultInjector] = None,
    ) -> Iterator[tuple[Hashable, Any, Optional[dict]]]:
        """Execute a validated plan, yielding ``(key, value, delta)``.

        ``jobs > 1`` (with a multi-spec plan, outside a worker) uses the
        persistent fleet; everything else runs serially in-process.
        Results come in plan order either way, one per spec.
        ``faults`` (default: the installed global plan) injects engine
        failures.  An unbuildable fleet surfaces as
        :class:`FleetUnavailableError`, and a fleet that breaks again
        after its one rebuild as ``BrokenProcessPool`` (its pool retired
        first); either is the executor's cue to degrade.
        """
        with self._lock:
            self.runs += 1
        injector = faults if faults is not None else active_injector()
        try:
            if jobs > 1 and len(specs) > 1 and not self._worker:
                try:
                    mapped = self._run_fleet(specs, jobs, injector)
                except (BrokenProcessPool, OSError):
                    # Retire the broken pool so a later run starts fresh.
                    self._teardown_pool()
                    raise
                for key, value, delta, shipped in mapped:
                    _san.absorb(shipped)
                    yield key, value, delta
            else:
                yield from run_serial(specs)
        finally:
            self._flush_store(injector)

    def _run_fleet(
        self,
        specs: Sequence[RunSpec],
        jobs: int,
        injector: Optional[EngineFaultInjector] = None,
    ) -> list[tuple[Hashable, Any, Optional[dict], list]]:
        workers = min(jobs, len(specs))
        pool = self._ensure_fleet(workers, injector)
        chunksize = plan_chunksize(len(specs), workers)
        # A "slow" verdict abandons the first attempt on the virtual
        # timeline before it runs anything: the map below is its retry
        # on the same (healthy) fleet.
        verdict = injector.on_pool_run() if injector is not None else None
        try:
            if verdict == "kill":
                raise BrokenProcessPool("injected worker kill")
            return list(pool.map(_fleet_execute, specs, chunksize=chunksize))
        except BrokenProcessPool:
            # A worker died (OOM, signal).  Specs are pure and idempotent,
            # so rebuild the fleet once and retry the whole plan.
            self._teardown_pool(pool)
            if injector is not None:
                injector.record_rebuild()
            pool = self._ensure_fleet(workers, injector)
            return list(pool.map(_fleet_execute, specs, chunksize=chunksize))

    # -- fleet lifecycle -------------------------------------------------
    def _ensure_fleet(
        self, workers: int, injector: Optional[EngineFaultInjector] = None
    ) -> ProcessPoolExecutor:
        """The live pool, grown to at least ``workers`` (built under lock).

        Returns a snapshot rather than leaving callers to re-read
        ``self._pool``: a concurrent rebuild can swap the attribute, and
        mapping onto a snapshot either works or raises
        ``BrokenProcessPool``/``RuntimeError`` — never silently targets a
        half-built pool.  The outgoing pool (when growing) is shut down
        *outside* the lock; its drain can take arbitrarily long.
        """
        if self._worker:
            raise RuntimeError("fleet workers must not spawn nested fleets")
        if injector is not None and injector.on_build():
            raise FleetUnavailableError("injected fleet build failure")
        stale: Optional[ProcessPoolExecutor] = None
        try:
            with self._lock:
                if self._manager is None:
                    # One-time fleet bring-up: the fleet does not exist
                    # yet, so nothing can contend on these RPCs.
                    self._manager = multiprocessing.Manager()
                    self._remote = self._manager.dict()  # repro: noqa[RPL104]
                    self.store.attach(self._remote)  # repro: noqa[RPL104]
                if self._pool is None or self._pool_workers < workers:
                    stale, self._pool = self._pool, None
                    self._pool_workers = max(self._pool_workers, workers)
                    self._pool = ProcessPoolExecutor(
                        max_workers=self._pool_workers,
                        initializer=_init_fleet_worker,
                        initargs=(self._remote,),
                    )
                pool = self._pool
        except OSError as exc:
            # Real bring-up failure (fork refused, manager socket, fd
            # exhaustion): same ladder as an injected one.
            raise FleetUnavailableError(f"fleet bring-up failed: {exc}") from exc
        if stale is not None:
            stale.shutdown(wait=True)
        return pool

    def _teardown_pool(
        self, pool: Optional[ProcessPoolExecutor] = None
    ) -> None:
        """Retire ``pool`` (default: the current one); swap under the
        lock, drain outside it."""
        with self._lock:
            if pool is None:
                pool = self._pool
            if pool is self._pool:
                self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def _flush_store(
        self, injector: Optional[EngineFaultInjector] = None
    ) -> None:
        """Persist not-yet-durable store entries (no-op without a path).

        Called after every run and at shutdown, so a kill between runs
        loses at most the entries of the in-flight run — which a resumed
        run deterministically re-solves.
        """
        if self.persistence is None:
            return
        self.persistence.injector = (
            injector if injector is not None else active_injector()
        )
        self.persistence.flush(self.store.snapshot())

    def shutdown(self) -> None:
        """Stop the fleet and the manager (the store reverts to nothing)."""
        self._flush_store()
        self._teardown_pool()
        with self._lock:
            manager, self._manager = self._manager, None
            self._remote = None
            self._backend = None
            self._pool_workers = 0
        if manager is not None:
            manager.shutdown()

    def stats(self) -> dict[str, float]:
        """Engine-level diagnostics (for benchmarks and reports)."""
        out = {
            "runs": float(self.runs),
            "pool_workers": float(self._pool_workers),
        }
        out.update({f"store_{k}": v for k, v in sorted(self.store.stats().items())})
        if self.persistence is not None:
            out.update(
                {
                    f"persist_{k}": float(v)
                    for k, v in sorted(self.persistence.stats().items())
                }
            )
        return out


atexit.register(SharedEngine.reset)
