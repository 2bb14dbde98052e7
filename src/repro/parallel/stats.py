"""Cache accounting that survives worker processes and engine restarts.

The original drivers read cache counters straight off the backend object
they happened to hold.  That breaks twice over under the execution
engines: a pooled run's backends live (and die) inside worker processes,
so their counters never reach the parent — BENCH_parallel's infamous
``measurement_hits: 0`` — and a *persistent* shared-engine backend
accumulates counters across experiments, so absolute values double-count
whatever ran before.

Both problems have one fix: measure *deltas over a scope*, close to where
the work runs, and ship the deltas home with the results.

* Backends built through :func:`repro.experiments.runner.make_backend`
  (and the engine's persistent backends) self-register in a process-local
  weak registry via :func:`track_backend`.
* :class:`CacheStatsCapture` snapshots every tracked backend's counters on
  entry and exposes the non-negative counter delta accumulated inside the
  scope.  Backends created *during* the scope are pinned on registration,
  so a spec-local backend that would be garbage-collected before the
  after-snapshot is still accounted for.
* :class:`~repro.parallel.executor.ParallelExecutor` wraps every spec in a
  capture (in-process or inside the worker), returns the delta alongside
  the result, and merges the parts — one mechanism for every engine.

:func:`collect_cache_stats` / :func:`merge_cache_stats` live here, not in
``repro.experiments.runner``, because the executor depends on them and the
experiments layer already depends on the executor.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.model.analytic import AnalyticBackend
from repro.model.base import MemoizedBackend, PerformanceBackend

__all__ = [
    "track_backend",
    "collect_cache_stats",
    "merge_cache_stats",
    "CacheStatsCapture",
]

_TRACKED: "weakref.WeakSet[PerformanceBackend]" = weakref.WeakSet()
_SCOPES: list["CacheStatsCapture"] = []

#: Derived ratios are dropped before summing and recomputed after — the
#: sum of two rates is not the rate of the union.
_RATE_KEYS = ("hit_rate", "config_hit_rate")


def track_backend(backend: PerformanceBackend) -> PerformanceBackend:
    """Register a backend whose cache counters captures should observe.

    Returns the backend, so construction sites can wrap in place.  The
    registry holds weak references only; tracking never extends a
    backend's lifetime beyond any capture scope that pinned it.
    """
    _TRACKED.add(backend)
    for scope in _SCOPES:
        scope._pin(backend)
    return backend


def collect_cache_stats(backend: PerformanceBackend) -> Optional[dict[str, float]]:
    """The backend's cache counters, if it keeps any.

    Combines the measurement-cache counters of a
    :class:`~repro.model.base.MemoizedBackend` with the inner analytic
    backend's seed-independent solution-cache counters.  Returns None for
    backends with no caches (e.g. ``--no-cache`` runs).
    """
    stats: dict[str, float] = {}
    inner = backend
    if isinstance(backend, MemoizedBackend):
        for k, v in sorted(backend.stats.as_dict().items()):
            stats[f"measurement_{k}"] = v
        inner = backend.backend
    if isinstance(inner, AnalyticBackend):
        solution = inner.solution_cache_stats
        if solution.lookups or solution.size:
            for k, v in sorted(solution.as_dict().items()):
                stats[f"solution_{k}"] = v
    return stats or None


def merge_cache_stats(
    parts: list[Optional[dict[str, float]]],
) -> Optional[dict[str, float]]:
    """Sum counters collected from several backends (one per worker).

    Rates are recomputed from the summed hit/miss counts (summing rates
    would be meaningless).
    """
    merged: dict[str, float] = {}
    for part in parts:
        for key, value in sorted((part or {}).items()):
            merged[key] = merged.get(key, 0.0) + value
    if not merged:
        return None
    for prefix in ("measurement", "solution"):
        hits = merged.get(f"{prefix}_hits")
        misses = merged.get(f"{prefix}_misses")
        if hits is not None or misses is not None:
            total = (hits or 0.0) + (misses or 0.0)
            merged[f"{prefix}_hit_rate"] = (hits or 0.0) / total if total else 0.0
        config_cold = merged.get(f"{prefix}_config_cold_misses")
        if hits is not None and config_cold is not None:
            servable = hits + config_cold
            merged[f"{prefix}_config_hit_rate"] = (
                hits / servable if servable else 0.0
            )
    return merged


class CacheStatsCapture:
    """Counter deltas of every tracked backend across a ``with`` block.

    Entry snapshots the summed counters of all live tracked backends and
    pins them (strong references) for the scope, so a backend cannot be
    collected between snapshot and delta.  Backends registered *inside*
    the scope are pinned with an implicit all-zero before-snapshot — their
    full counters count as delta, which is exact for freshly-constructed
    backends (the only kind created mid-spec).

    ``delta()`` (valid during or after the scope) returns the merged
    non-negative counter increase, or ``None`` if nothing ticked —
    matching :func:`collect_cache_stats`'s "no caches" convention.
    """

    def __init__(self) -> None:
        self._pinned: list[PerformanceBackend] = []
        self._pinned_ids: set[int] = set()
        self._before: dict[str, float] = {}

    def _pin(self, backend: PerformanceBackend) -> None:
        if id(backend) not in self._pinned_ids:
            self._pinned_ids.add(id(backend))
            self._pinned.append(backend)

    def _counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for backend in self._pinned:
            for key, value in sorted((collect_cache_stats(backend) or {}).items()):
                if key.endswith(_RATE_KEYS):
                    continue
                total[key] = total.get(key, 0.0) + value
        return total

    def __enter__(self) -> "CacheStatsCapture":
        for backend in list(_TRACKED):
            self._pin(backend)
        _SCOPES.append(self)
        self._before = self._counters()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _SCOPES.remove(self)

    def delta(self) -> Optional[dict[str, float]]:
        """The counter increase observed inside the scope (None if zero).

        ``size`` is a gauge, not a counter: its delta can go negative
        under LRU eviction, so it is floored at 0 like everything else —
        the merged value then reads "entries added", which is the useful
        cross-worker number.
        """
        after = self._counters()
        out: dict[str, float] = {}
        ticked = False
        for key, value in sorted(after.items()):
            d = max(value - self._before.get(key, 0.0), 0.0)
            out[key] = d
            if d:
                ticked = True
        if not ticked:
            return None
        return merge_cache_stats([out])
