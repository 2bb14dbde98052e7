"""Frontier scheduling: warm a speculative batch across worker processes.

:func:`prefetch_frontier` is the bridge between the speculative evaluator
(:mod:`repro.harmony.speculate`) and the parallel engine.  With ``jobs=1``
(or a backend with nothing to warm) it is exactly
``backend.prefetch_configs`` — the in-process batched solve.  With
``jobs>1`` the frontier is split round-robin into per-worker chunks; each
worker solves its chunk on a *fresh* analytic backend built from the
parent's solver settings and ships the resulting deterministic solutions
back, which the parent absorbs into its own solution memo.

Solutions are deterministic functions of (scenario, configuration, solver
settings) — no seeds, no shared state — so the absorbed entries are
bit-identical to what the parent would have solved itself, and results
are independent of the ``jobs`` setting, chunk assignment, and completion
order.  Prefetching only ever changes *when* a solution is computed, never
what any later measurement observes.

Under the shared execution engine (``--engine shared``) the chunks run on
the persistent worker fleet instead of a throwaway pool.  When the parent
backend is the engine's own, absorbed solutions land in the engine's
memos, so later fleets start with them and ``--store-path`` persists them.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.harmony.parameter import Configuration
from repro.model.analytic import AnalyticBackend
from repro.model.base import MemoizedBackend, PerformanceBackend, Scenario
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec

__all__ = ["prefetch_frontier"]

#: The :class:`AnalyticBackend` settings a chunk's solutions (and their
#: memo keys, which carry the resolved approximation) depend on.  The
#: noise model is not one: prefetching never draws noise.
_SOLVER_SETTINGS = (
    "memory",
    "solution_cache_size",
    "approximation",
    "fluid_population_threshold",
    "hierarchy_node_threshold",
)


def _prefetch_chunk(
    scenario: Scenario,
    configurations: Sequence[Configuration],
    settings: Mapping[str, Any],
):
    """Worker entry point: solve one frontier chunk on a fresh backend.

    The fresh backend is built with the parent's solver settings and
    starts cold, so its exported memo is exactly the chunk's solutions,
    under the keys the parent will look them up by.
    """
    backend = AnalyticBackend(**settings)
    try:
        backend.prefetch_configs(scenario, configurations)
    except Exception:  # repro: noqa[RPL008] - advisory warm-up only
        # A chunk that fails mid-warm still ships whatever it solved; the
        # unprefetched remainder just solves cold on the commit path.
        pass
    return backend.export_solutions()


def prefetch_frontier(
    backend: PerformanceBackend,
    scenario: Scenario,
    configurations: Sequence[Configuration],
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> int:
    """Warm ``backend``'s deterministic caches for a candidate frontier.

    Returns the number of cold solutions added.  Fans the frontier over
    ``jobs`` worker processes when the backend is analytic (directly or
    under a :class:`MemoizedBackend` wrapper) and the frontier is worth
    splitting; otherwise delegates to the backend's own batched prefetch,
    which is a no-op for backends with no deterministic cache (DES).
    """
    inner = backend.backend if isinstance(backend, MemoizedBackend) else backend
    if (
        jobs <= 1
        or not isinstance(inner, AnalyticBackend)
        or inner.solution_cache_size == 0
        or len(configurations) < 2
    ):
        return backend.prefetch_configs(scenario, configurations)
    chunks = [list(configurations[i::jobs]) for i in range(jobs)]
    chunks = [c for c in chunks if c]
    specs = [
        RunSpec(
            key=i,
            fn=_prefetch_chunk,
            kwargs=dict(
                scenario=scenario,
                configurations=chunk,
                settings={name: getattr(inner, name) for name in _SOLVER_SETTINGS},
            ),
        )
        for i, chunk in enumerate(chunks)
    ]
    runner = executor if executor is not None else ParallelExecutor(jobs)
    results = runner.run(specs)
    added = 0
    for key in sorted(results):
        added += inner.absorb_solutions(results[key])
    return added
