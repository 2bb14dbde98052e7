"""Parallel experiment engine: independent runs fanned over workers.

Experiments in this repro decompose into independent *runs* — (scenario,
method, strategy, seed, iterations) tuples whose results are then
collated into figures and tables.  This package expresses that structure
explicitly: a :class:`~repro.parallel.plan.RunSpec` names one run and the
picklable function that performs it, and a
:class:`~repro.parallel.executor.ParallelExecutor` executes a batch of
specs under one of two engines (the ``--engine`` axis; by default
``inline`` at ``jobs=1`` and ``shared`` above):

* ``inline`` — in-process, serial, ``jobs`` ignored;
* ``shared`` — the persistent :class:`~repro.parallel.engine.SharedEngine`
  (a worker fleet reused across runs over a cross-process shared cache,
  with a serial in-process path over the same cache at ``jobs=1``).

Every run carries its own seed (derived deterministically with
:func:`repro.util.rng.derive_seed`) and every cache is content-addressed
with deterministic values, so the same plan produces bit-identical
results at every ``--engine``/``--jobs`` setting; only wall-clock time
and cache hit rates change.
"""

from repro.parallel.engine import (
    ENGINES,
    SharedEngine,
    plan_chunksize,
    resolve_engine,
)
from repro.parallel.executor import ParallelExecutor, resolve_jobs
from repro.parallel.plan import RunSpec, run_specs
from repro.parallel.stats import (
    CacheStatsCapture,
    collect_cache_stats,
    merge_cache_stats,
    track_backend,
)
from repro.parallel.store import SharedStore

__all__ = [
    "RunSpec",
    "run_specs",
    "ParallelExecutor",
    "resolve_jobs",
    "plan_chunksize",
    "ENGINES",
    "resolve_engine",
    "SharedEngine",
    "SharedStore",
    "CacheStatsCapture",
    "collect_cache_stats",
    "merge_cache_stats",
    "track_backend",
]
