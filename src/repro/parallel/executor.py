"""Fan independent runs over worker processes, deterministically.

:class:`ParallelExecutor` executes a list of :class:`RunSpec`s and
returns their results keyed by spec key.  Three engines share one
contract — the result map is identical at every ``engine``/``jobs``
setting, because every spec is self-contained (own seed, content-
addressed caches only) and results are collated by key in plan order:

* ``inline`` — always in-process and serial, ``jobs`` is ignored.  The
  debugging/CI baseline.
* ``process`` — in-process when ``jobs=1`` or the plan has one spec,
  otherwise a per-run :class:`concurrent.futures.ProcessPoolExecutor`
  (PR 1's engine, now with an explicit ``chunksize``).
* ``shared`` — the persistent :class:`~repro.parallel.engine.SharedEngine`:
  a worker fleet reused across runs over a cross-process shared cache,
  and a serial in-process path over the same caches at ``jobs=1``.

Whatever the engine, every spec runs inside a
:class:`~repro.parallel.stats.CacheStatsCapture`, and the merged counter
deltas are exposed as :attr:`ParallelExecutor.cache_stats` — so pooled
runs report the cache traffic that actually happened in the workers
instead of the parent's empty counters.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Hashable, Optional, Sequence

from repro.faults.engine import (
    EngineFaultInjector,
    FleetUnavailableError,
    active_injector,
)
from repro.lint import sanitizer as _san
from repro.parallel.plan import RunSpec, run_specs
from repro.parallel.stats import CacheStatsCapture, merge_cache_stats

__all__ = ["resolve_jobs", "plan_chunksize", "ParallelExecutor"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` → all cores, else as-is."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def plan_chunksize(num_specs: int, workers: int) -> int:
    """An explicit ``pool.map`` chunksize for a plan.

    The default (1) pays one pickle/dispatch round-trip per spec, which
    dominates for cheap specs.  Four chunks per worker keeps dispatch
    overhead amortized while still letting finish-order stragglers
    rebalance; the formula is the stdlib multiprocessing heuristic.
    """
    return max(1, num_specs // (workers * 4))


def _execute(spec: RunSpec) -> tuple[Hashable, Any, Optional[dict], list]:
    """Worker entry point: one spec plus its cache-counter delta.

    The fourth element ships worker-side sanitizer findings home (empty
    when the sanitizer is off) — see
    :func:`repro.parallel.engine._fleet_execute`.
    """
    with CacheStatsCapture() as capture:
        value = spec.execute()
    return spec.key, value, capture.delta(), _san.take_findings()


class ParallelExecutor:
    """Execute a plan of independent runs with a fixed worker count."""

    def __init__(
        self,
        jobs: Optional[int] = 1,
        engine: Optional[str] = None,
        journal=None,
        faults: Optional[EngineFaultInjector] = None,
    ) -> None:
        from repro.parallel.engine import resolve_engine

        self.jobs = resolve_jobs(jobs)
        self.engine = resolve_engine(engine)
        #: Optional :class:`~repro.durability.journal.ExperimentJournal`:
        #: completed specs are served from it and fresh results are
        #: committed to it as they stream in.
        self.journal = journal
        #: Explicit engine-fault injector (default: the installed global).
        self.faults = faults
        #: Ladder steps taken during the most recent run, in order.
        self.degradations: list[str] = []
        self._stats_parts: list[Optional[dict]] = []

    def _injector(self) -> Optional[EngineFaultInjector]:
        return self.faults if self.faults is not None else active_injector()

    def run(self, specs: Sequence[RunSpec]) -> dict[Hashable, Any]:
        """Execute every spec; results keyed by spec key.

        The returned dict's iteration order is submission order at every
        engine/jobs setting (workers may *finish* in any order; collation
        re-imposes the plan's order).

        With a journal, specs already committed by a previous (killed)
        run are served from it — value and cache-stat delta alike — and
        only the remainder executes.  When the requested engine cannot
        deliver (fleet unbuildable, pool broken), the run *degrades*
        shared → process → inline instead of aborting: specs are pure, so
        a simpler engine produces identical results, just slower.
        """
        specs = list(specs)
        run_specs(specs)
        self._stats_parts = []
        self.degradations = []
        if not specs:
            return {}
        journal = self.journal
        collated: dict[Hashable, Any] = {}
        pending: list[RunSpec] = []
        if journal is not None:
            for spec in specs:
                hit = journal.get(spec.key)
                if hit is None:
                    pending.append(spec)
                else:
                    collated[spec.key] = hit[0]
                    self._stats_parts.append(hit[1])
        else:
            pending = specs

        def commit(key: Hashable, value: Any, delta: Optional[dict]) -> None:
            collated[key] = value
            self._stats_parts.append(delta)
            if journal is not None:
                journal.put(key, value, delta)

        if pending:
            engine = self.engine
            if engine == "shared":
                try:
                    self._run_shared(pending, commit)
                except FleetUnavailableError:
                    engine = self._degrade("shared->process")
            if engine == "process" and not (
                self.jobs == 1 or len(pending) == 1
            ):
                try:
                    self._run_pool(
                        [s for s in pending if s.key not in collated], commit
                    )
                except (FleetUnavailableError, BrokenProcessPool, OSError):
                    engine = self._degrade("process->inline")
            if engine in ("process", "inline"):
                self._run_inline(
                    [s for s in pending if s.key not in collated], commit
                )
        return {spec.key: collated[spec.key] for spec in specs}

    def _degrade(self, step: str) -> str:
        """Take one rung of the ladder; returns the new engine name."""
        self.degradations.append(step)
        injector = self._injector()
        if injector is not None:
            injector.record_degradation(step)
        return step.split("->", 1)[1]

    def _run_shared(
        self,
        pending: Sequence[RunSpec],
        commit: Callable[[Hashable, Any, Optional[dict]], None],
    ) -> None:
        from repro.parallel.engine import SharedEngine

        results, parts = SharedEngine.instance().run(
            pending, self.jobs, faults=self.faults
        )
        for spec, delta in zip(pending, parts):
            commit(spec.key, results[spec.key], delta)

    def _run_pool(
        self,
        pending: Sequence[RunSpec],
        commit: Callable[[Hashable, Any, Optional[dict]], None],
    ) -> None:
        injector = self._injector()
        if injector is not None and injector.on_build():
            raise FleetUnavailableError("injected process-pool build failure")
        workers = min(self.jobs, len(pending))
        verdict = injector.on_pool_run() if injector is not None else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if verdict == "kill":
                # This engine has no rebuild (the pool is per-run); a
                # killed worker drops the run to the inline rung.
                raise BrokenProcessPool("injected worker kill")
            for key, value, delta, shipped in pool.map(
                _execute, pending, chunksize=plan_chunksize(len(pending), workers)
            ):
                commit(key, value, delta)
                _san.absorb(shipped)

    def _run_inline(
        self,
        pending: Sequence[RunSpec],
        commit: Callable[[Hashable, Any, Optional[dict]], None],
    ) -> None:
        for spec in pending:
            with CacheStatsCapture() as capture:
                value = spec.execute()
            commit(spec.key, value, capture.delta())

    def close(self) -> None:
        """Release the journal's file handle, if one is attached.

        Idempotent; drivers call it once their last plan has run so a
        follow-up ``--resume`` (or a test) can reopen the file.
        """
        if self.journal is not None:
            self.journal.close()

    @property
    def cache_stats(self) -> Optional[dict[str, float]]:
        """Merged per-spec cache-counter deltas of the most recent run.

        This is the executor-level fix for the pooled-run reporting hole:
        counters are captured where the specs execute (worker or parent),
        shipped back as deltas, and merged here with rates recomputed.
        ``None`` when the last run's specs touched no caches.
        """
        return merge_cache_stats(self._stats_parts)
