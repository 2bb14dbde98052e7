"""Speculative lookahead batching for the tuning loop.

The Adaptation Controller drives the system one measurement at a time
(paper §II.B), so a tuning session is a serial chain of ``ask → measure →
tell`` steps that, on its own, can never use the batched solver.  Some of
the serial algorithm's *next* asks are known before the pending
measurement's value is, though: the rest of a Nelder–Mead INIT or SHRINK
vertex queue (see
:meth:`~repro.harmony.simplex.NelderMeadSimplex.speculative_frontier`),
the rest of coordinate descent's probe list for one dimension, and
random search's next draw, reproducible from a cloned generator.  These
asks are certain: the strategy makes them whatever the pending
measurement returns.

The :class:`SpeculativeEvaluator` uses that certain forecast: once per
``step()`` it collects every tuning group's forecast via
:meth:`~repro.harmony.search.SearchStrategy.speculate`, fuses the
per-group fragments into full cluster configurations, and warms the
backend's deterministic solution cache for the whole batch in one
in-process batched solve (``backend.prefetch_configs``).  The serial
ask/tell sequence then commits exactly the candidate it always would; a
forecast entry it never reaches (the run ends, or the mix or cluster
changes first) stays in the cache as wasted warmth, never observable.

Bit-identity is structural, not aspirational: speculation only ever calls
``prefetch_configs``, which by contract changes *when* deterministic
solutions are computed and nothing else.  Strategy state, RNG streams,
trajectories and reported :class:`~repro.model.base.Measurement`s are
untouched; a misprediction costs one cache miss, exactly the serial price.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.harmony.parameter import Configuration
from repro.harmony.scaling import PartitionScheme, TuningScheme
from repro.harmony.search import SearchStrategy
from repro.model.base import PerformanceBackend, Scenario, SpeculationStats

__all__ = ["SpeculativeEvaluator"]


class SpeculativeEvaluator:
    """Per-session speculation driver: plan, prefetch, account.

    One evaluator serves one :class:`~repro.tuning.session.
    ClusterTuningSession`: it sees the same scheme and the same per-group
    strategies, is invoked once per step with the fragments just fetched,
    and keeps the hit/waste counters (:class:`SpeculationStats`) the
    benchmarks report.
    """

    def __init__(
        self,
        backend: PerformanceBackend,
        scheme: TuningScheme,
        strategies: Mapping[str, SearchStrategy],
    ) -> None:
        self.backend = backend
        self.scheme = scheme
        self.strategies = dict(strategies)
        self.stats = SpeculationStats()
        # Previous step's per-group plans, scored against the fragments
        # actually committed on the next step.
        self._planned: Optional[dict[str, set[Configuration]]] = None
        # Every fragment ever speculated per group (cleared on reset):
        # deduplicates the planned/batched accounting across steps — a
        # queue entry re-announced while it waits its turn is one plan,
        # not one per step.
        self._ever: dict[str, set[Configuration]] = {}

    def reset(self) -> None:
        """Drop the current plan (after a scenario/cluster change).

        Counters are kept; the next step plans afresh instead of scoring
        fragments against predictions made for a different scenario.
        """
        self._planned = None
        self._ever = {}

    def prefetch(
        self,
        scenario: Scenario,
        fragments: Mapping[str, Configuration],
        full: Configuration,
    ) -> None:
        """One step's speculation: score the last plan, warm the next.

        ``fragments`` are the per-group configurations the session just
        fetched (the asks about to be measured), and ``full`` is the
        session's combination of them.  The submitted batch always leads
        with ``full``, so this step's own solve rides the same batch as
        the lookahead.

        The session asks every group once per step, so each group's
        :meth:`~repro.harmony.search.SearchStrategy.speculate` forecast is
        ordered and the future *full* configurations are the positional
        zip of the per-group forecasts: depth-``k`` batch entry = every
        group's ``k``-th candidate.  Under partitioning the backend caches
        per-line solutions, so a group's forecast warms its own line
        regardless of what the other groups do and a group whose forecast
        ran out is padded with its current fragment; under the fused
        (default/duplication) schemes the whole-cluster solution is only
        predictable while *every* group's next ask is, so the zip stops at
        the shortest forecast.
        """
        if self._planned is not None:
            for gid, frag in fragments.items():
                if frag in self._planned.get(gid, ()):
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1

        plans = {
            gid: strategy.speculate() for gid, strategy in self.strategies.items()
        }
        planned = 0
        fresh: dict[str, set[Configuration]] = {}
        for gid in sorted(plans):
            ever = self._ever.setdefault(gid, set())
            fresh[gid] = {c for c in plans[gid] if c not in ever}
            planned += len(fresh[gid])
            ever |= fresh[gid]

        if isinstance(self.scheme, PartitionScheme):
            depth = max((len(p) for p in plans.values()), default=0)
        else:
            depth = min((len(p) for p in plans.values()), default=0)
        batch = [full]
        for k in range(depth):
            frags_k = {
                gid: plans[gid][k] if k < len(plans[gid]) else fragments[gid]
                for gid in fragments
            }
            # Only submit depths that warm something: a column whose every
            # fragment was already speculated is warm from a prior step.
            if any(frags_k[gid] in fresh[gid] for gid in fresh):
                batch.append(self.scheme.combine(frags_k))
        self.stats.planned += planned
        self.stats.batched += len(batch)
        try:
            self.stats.solves += self.backend.prefetch_configs(scenario, batch)
        except Exception:  # repro: noqa[RPL008] - advisory warm-up only
            # A failed prefetch (a backend fault mid-warm) costs cache
            # warmth, never correctness: the committed measure path solves
            # cold exactly what the prefetch would have.
            self.stats.prefetch_failures += 1
        self._planned = {gid: set(plan) for gid, plan in plans.items()}
