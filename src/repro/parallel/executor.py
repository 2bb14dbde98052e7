"""Fan independent runs over worker processes, deterministically.

:class:`ParallelExecutor` executes a list of :class:`RunSpec`s and
returns their results keyed by spec key.  Two engines share one
contract — the result map is identical at every ``engine``/``jobs``
setting, because every spec is self-contained (own seed, content-
addressed caches only) and results are collated by key in plan order:

* ``inline`` — always in-process and serial, ``jobs`` is ignored.  The
  debugging/CI baseline and the default at ``jobs=1``.
* ``shared`` — the persistent :class:`~repro.parallel.engine.SharedEngine`:
  a worker fleet reused across runs, whose workers start from the
  parent's cache entries and ship the entries they compute home with
  each result, and a serial in-process path over the parent's caches at
  ``jobs=1``.  The default at ``jobs > 1``.

Whatever the engine, every spec runs inside a
:class:`~repro.parallel.stats.CacheStatsCapture`, and the merged counter
deltas are exposed as :attr:`ParallelExecutor.cache_stats` — so pooled
runs report the cache traffic that actually happened in the workers
instead of the parent's empty counters.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Hashable, Optional, Sequence

from repro.faults.engine import (
    EngineFaultInjector,
    FleetUnavailableError,
    active_injector,
)
from repro.parallel.engine import SharedEngine, resolve_engine, run_serial
from repro.parallel.plan import RunSpec, run_specs
from repro.parallel.stats import merge_cache_stats

__all__ = ["resolve_jobs", "ParallelExecutor"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` → all cores, else as-is."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


class ParallelExecutor:
    """Execute a plan of independent runs with a fixed worker count."""

    def __init__(
        self,
        jobs: Optional[int] = 1,
        engine: Optional[str] = None,
        journal=None,
        faults: Optional[EngineFaultInjector] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.engine = resolve_engine(engine, self.jobs)
        #: Optional :class:`~repro.durability.journal.ExperimentJournal`:
        #: completed specs are served from it and fresh results are
        #: committed to it as they stream in.
        self.journal = journal
        #: Explicit engine-fault injector (default: the installed global).
        self.faults = faults
        #: Ladder steps taken during the most recent run, in order.
        self.degradations: list[str] = []
        self._stats_parts: list[Optional[dict]] = []

    def run(self, specs: Sequence[RunSpec]) -> dict[Hashable, Any]:
        """Execute every spec; results keyed by spec key.

        The returned dict's iteration order is submission order at every
        engine/jobs setting (workers may *finish* in any order; collation
        re-imposes the plan's order).

        With a journal, specs already committed by a previous (killed)
        run are served from it — value and cache-stat delta alike — and
        only the remainder executes.  When the shared fleet cannot
        deliver (unbuildable, or broken again after its rebuild), the run
        *degrades* shared → inline instead of aborting: specs are pure,
        so the serial engine produces identical results, just slower.
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

        if pending and self.engine == "shared":
            try:
                for key, value, delta in SharedEngine.instance().run(
                    pending, self.jobs, faults=self.faults
                ):
                    commit(key, value, delta)
            except (FleetUnavailableError, BrokenProcessPool, OSError):
                step = "shared->inline"
                self.degradations.append(step)
                injector = (
                    self.faults if self.faults is not None else active_injector()
                )
                if injector is not None:
                    injector.record_degradation(step)
        if len(collated) < len(specs):
            for key, value, delta in run_serial(
                [s for s in pending if s.key not in collated]
            ):
                commit(key, value, delta)
        return {spec.key: collated[spec.key] for spec in specs}

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
