"""The persistent shared-cache execution engine (``--engine shared``).

The only pooled engine.  One :class:`SharedEngine` lives for a whole CLI
invocation, so pool spawn and cold caches are paid once, not per run:

* **A worker fleet that outlives runs.**  The ``ProcessPoolExecutor`` is
  created on first pooled run and reused by every later run (grown, never
  shrunk, when a run asks for more workers).  Each worker builds its
  persistent backend once, so its memos stay warm across runs.
* **One cache level per process.**  Every process keeps exactly one:
  the two :class:`~repro.model.base.ContentMemo` instances (solutions and
  measurements) of its persistent backend.  Entries cross processes in
  two places only.  A worker starts with a snapshot of the parent's
  entries, so serial warm-up and ``--store-path`` entries seed the fleet.
  Each spec's result comes home with the entries the worker's memos
  gained during it, and the parent absorbs them in plan order, so a
  configuration solved anywhere is a hit in the parent, in any fleet
  started later and in later experiments of the invocation.
* **A serial in-process path.**  ``jobs=1`` plans (and plans nested
  inside a fleet worker) run spec by spec in plan order over the same
  persistent backend, so they reuse everything earlier runs cached.

Everything cached is deterministic and content-addressed, so the engine
preserves the executor's bit-identity contract at every jobs setting.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Hashable, Iterator, Mapping, Optional, Sequence

from repro.faults.engine import (
    EngineFaultInjector,
    FleetUnavailableError,
    active_injector,
)
from repro.model.analytic import AnalyticBackend
from repro.model.base import ContentMemo, MeasurementCache, MemoizedBackend
from repro.parallel.plan import RunSpec
from repro.parallel.stats import CacheStatsCapture, track_backend

__all__ = [
    "ENGINES",
    "plan_chunksize",
    "resolve_engine",
    "run_serial",
    "SharedEngine",
]

#: The ``--engine`` axis.  ``inline`` = always in-process and serial
#: (jobs is ignored), ``shared`` = this module's persistent fleet +
#: shared cache (serial in-process over the same cache at jobs=1).
ENGINES = ("inline", "shared")

#: Entry bound of each persistent memo: the engine's backend serves a
#: whole invocation, so its warmth is not cut to the per-run defaults.
MEMO_ENTRIES = 500_000


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


def _fleet_execute(
    spec: RunSpec,
) -> tuple[Hashable, Any, Optional[dict], dict]:
    """Fleet worker entry point: one spec plus what it leaves behind.

    Besides the result and its cache-counter delta, the worker ships
    home the entries its memos gained during the spec.  Anything that
    stays in a worker dies with it.
    """
    key, value, delta = next(run_serial([spec]))
    return key, value, delta, SharedEngine._instance._take_gained()


def _init_fleet_worker(entries: Mapping[tuple, object]) -> None:
    """Fleet worker initializer: build the backend from the parent's entries.

    Runs once per worker process (not per task).  The worker's engine
    singleton is marked as a worker so a spec that itself constructs a
    ``ParallelExecutor`` degrades to in-process execution instead of
    forking a fleet of its own.  Recording starts after the snapshot is
    absorbed, so each spec ships only what it computed.
    """
    engine = SharedEngine._instance = SharedEngine(worker=True)
    engine._absorb(entries)
    engine._take_gained()


class SharedEngine:
    """Process-wide singleton owning the fleet and the persistent backend."""

    _instance: Optional["SharedEngine"] = None
    #: Directory for durable store segments (``--store-path``); set via
    #: :meth:`configure` before the singleton is built.
    _store_path: Optional[str] = None

    @classmethod
    def instance(cls) -> "SharedEngine":
        """The invocation's engine (created on first use)."""
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    @classmethod
    def configure(cls, store_path: Optional[str] = None) -> None:
        """Set invocation-wide engine options before first use.

        ``store_path`` names a durable segment directory
        (:class:`~repro.durability.diskstore.StorePersistence`): the
        parent engine loads its entries into the memos at bring-up and
        flushes new entries after every run and at shutdown.  Must be
        called before the singleton exists; :meth:`reset` clears it.
        """
        if cls._instance is not None and cls._store_path != store_path:
            raise RuntimeError(
                "SharedEngine.configure must run before the engine is "
                "built (call SharedEngine.reset() first)"
            )
        cls._store_path = store_path

    @classmethod
    def reset(cls) -> None:
        """Tear down the singleton (tests; end of invocation)."""
        engine, cls._instance = cls._instance, None
        cls._store_path = None
        if engine is not None:
            engine.shutdown()

    def __init__(self, worker: bool = False) -> None:
        self._worker = worker
        self._backend: Optional[MemoizedBackend] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        #: Diagnostics: runs served.
        self.runs = 0
        # Durable store bring-up (parent only: workers get the entries in
        # their start-up snapshot; the parent does the flushing).
        self.persistence = None
        if not worker and SharedEngine._store_path is not None:
            from repro.durability.diskstore import StorePersistence

            self.persistence = StorePersistence(SharedEngine._store_path)
            self._absorb(self.persistence.load())

    # -- backends --------------------------------------------------------
    def backend(self) -> MemoizedBackend:
        """The persistent backend (built once, shared by all).

        Reused across experiments; drivers get it from
        :func:`repro.experiments.runner.make_backend` when the config's
        engine is ``shared``.
        """
        if self._backend is None:
            self._backend = MemoizedBackend(
                AnalyticBackend(solution_cache_size=MEMO_ENTRIES),
                cache=MeasurementCache(MEMO_ENTRIES),
            )
            track_backend(self._backend)
        return self._backend

    def _memos(self) -> tuple[ContentMemo, ContentMemo]:
        """The persistent backend's solution and measurement memos."""
        backend = self.backend()
        return backend.backend.solutions, backend.cache

    def _entries(self) -> dict[tuple, object]:
        """Every memo entry, keyed ``(namespace, key)`` as on disk.

        In each memo's LRU order, as :meth:`_absorb` keeps it: the order
        only decides evictions, never a value.
        """
        return {
            (memo.namespace, key): value
            for memo in self._memos()
            for key, value in memo.items()  # repro: noqa[RPL003]
        }

    def _absorb(self, entries: Mapping[tuple, object]) -> None:
        """Merge entries keyed ``(namespace, key)`` into the memos, in
        the mapping's order (see :meth:`_entries`)."""
        for memo in self._memos():
            memo.absorb(
                (key, value)
                for (namespace, key), value in entries.items()  # repro: noqa[RPL003]
                if namespace == memo.namespace
            )

    def _take_gained(self) -> dict[tuple, object]:
        """The memos' entries new since the last call, keyed as on disk."""
        return {
            (memo.namespace, key): value
            for memo in self._memos()
            for key, value in memo.take_gained()
        }

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
                for key, value, delta, gained in mapped:
                    self._absorb(gained)
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
    ) -> list[tuple[Hashable, Any, Optional[dict], dict]]:
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
        """The live pool, grown to at least ``workers``.

        When growing, the outgoing pool is shut down after the new one
        is built.
        """
        if self._worker:
            raise RuntimeError("fleet workers must not spawn nested fleets")
        if injector is not None and injector.on_build():
            raise FleetUnavailableError("injected fleet build failure")
        if self._pool is None or self._pool_workers < workers:
            stale, self._pool = self._pool, None
            self._pool_workers = max(self._pool_workers, workers)
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_workers,
                    initializer=_init_fleet_worker,
                    initargs=(self._entries(),),
                )
            except OSError as exc:
                # Real bring-up failure (fork refused, fd exhaustion):
                # same ladder as an injected one.
                raise FleetUnavailableError(
                    f"fleet bring-up failed: {exc}"
                ) from exc
            if stale is not None:
                stale.shutdown(wait=True)
        return self._pool

    def _teardown_pool(
        self, pool: Optional[ProcessPoolExecutor] = None
    ) -> None:
        """Retire ``pool`` (default: the current one) and drain it."""
        if pool is None:
            pool = self._pool
        if pool is self._pool:
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def _flush_store(
        self, injector: Optional[EngineFaultInjector] = None
    ) -> None:
        """Persist not-yet-durable memo entries (no-op without a path).

        Called after every run and at shutdown, so a kill between runs
        loses at most the entries of the in-flight run — which a resumed
        run deterministically re-solves.
        """
        if self.persistence is None:
            return
        self.persistence.injector = (
            injector if injector is not None else active_injector()
        )
        self.persistence.flush(self._entries())

    def shutdown(self) -> None:
        """Flush, stop the fleet and drop the persistent backend."""
        self._flush_store()
        self._teardown_pool()
        self._backend = None
        self._pool_workers = 0

    def stats(self) -> dict[str, float]:
        """Engine-level diagnostics (for benchmarks and reports).

        ``store_entries`` counts the entries in this process's memos.
        """
        out = {
            "runs": float(self.runs),
            "pool_workers": float(self._pool_workers),
            "store_entries": float(sum(len(memo) for memo in self._memos())),
        }
        if self.persistence is not None:
            out.update(
                {
                    f"persist_{k}": float(v)
                    for k, v in sorted(self.persistence.stats().items())
                }
            )
        return out


atexit.register(SharedEngine.reset)
