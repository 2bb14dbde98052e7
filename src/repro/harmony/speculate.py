"""Speculative lookahead batching for the tuning loop.

The Adaptation Controller drives the system one measurement at a time
(paper §II.B), so a tuning session is a serial chain of ``ask → measure →
tell`` steps that, on its own, can never use the batched solver.  But the
serial algorithm's *next* asks are enumerable before the pending
measurement's value is known: the Nelder–Mead state machine can only move
to its reflection, expansion, contraction or shrink candidates (all
computable from the current simplex — see
:meth:`~repro.harmony.simplex.NelderMeadSimplex.speculative_frontier`),
coordinate descent's probe list is fixed per dimension, and random
search's next draw is reproducible from a cloned generator.

The :class:`SpeculativeEvaluator` exploits that: once per ``step()`` it
collects every tuning group's frontier via
:meth:`~repro.harmony.search.SearchStrategy.speculate`, fuses the
per-group candidate fragments into full cluster configurations (candidate
for one group, the currently-asked fragment for every other), and warms
the backend's deterministic solution cache for the whole batch in one
batched solve (:func:`repro.parallel.frontier.prefetch_frontier`,
fanned over workers under ``--jobs``).  The serial ask/tell sequence then
commits exactly the candidate it always would — speculated solves it
never asks for stay in the cache as wasted warmth, never observable.

Bit-identity is structural, not aspirational: speculation only ever calls
``prefetch_configs``, which by contract changes *when* deterministic
solutions are computed and nothing else.  Strategy state, RNG streams,
trajectories and reported :class:`~repro.model.base.Measurement`s are
untouched at every setting; misprediction costs one cache miss, exactly
the serial price.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.harmony.parameter import Configuration
from repro.harmony.scaling import PartitionScheme, TuningScheme
from repro.harmony.search import SearchStrategy
from repro.model.base import PerformanceBackend, Scenario, SpeculationStats
from repro.parallel.executor import ParallelExecutor
from repro.parallel.frontier import prefetch_frontier

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
        jobs: int = 1,
        alternatives: bool = False,
        engine: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.backend = backend
        self.scheme = scheme
        self.strategies = dict(strategies)
        self.jobs = jobs
        # Also prefetch branch *alternatives* (the value-conditional
        # next-ask candidates).  Off by default: alternatives form small
        # batches with ~50% waste, and on the analytic backend a small
        # batch solves barely cheaper per row than the serial price the
        # miss would have cost — measured net-negative on the Table 4
        # partitioned benchmark.  The knob exists for backends/models
        # where a cold evaluation is expensive enough that any prefetch
        # wins (hit-rate rises to ≈0.99 with it on).
        self.alternatives = alternatives
        self.stats = SpeculationStats()
        # Previous step's per-group plans, scored against the fragments
        # actually committed on the next step.
        self._planned: Optional[dict[str, set[Configuration]]] = None
        # Every fragment ever speculated per group (cleared on reset):
        # deduplicates the planned/batched accounting across steps — a
        # queue entry re-announced while it waits its turn is one plan,
        # not one per step.
        self._ever: dict[str, set[Configuration]] = {}
        # Prefetch chunks fan over this executor; under the shared
        # engine they reach the persistent fleet (and its shared cache)
        # instead of a throwaway pool.
        self._executor = (
            ParallelExecutor(jobs, engine=engine) if jobs > 1 else None
        )

    def reset(self) -> None:
        """Drop the current plan (after a scenario/cluster change).

        Counters are kept; the next step plans afresh instead of scoring
        fragments against predictions made for a different scenario.
        """
        self._planned = None
        self._ever = {}

    def prefetch(
        self, scenario: Scenario, fragments: Mapping[str, Configuration]
    ) -> None:
        """One step's speculation: score the last plan, warm the next.

        ``fragments`` are the per-group configurations the session just
        fetched (the asks about to be measured).  The submitted batch
        always includes the fused *current* configuration, so this step's
        own solve rides the same batch as the lookahead.

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

        Each group's branch *alternatives*
        (:meth:`~repro.harmony.search.SearchStrategy.speculate_alternatives`)
        are fused one at a time against the current fragments — useful
        exactly when one fragment's warmth stands on its own, i.e. under
        per-line caching or with a single group; fused multi-group schemes
        skip them (a full solve of current-elsewhere would be wasted).
        """
        if self._planned is not None:
            for gid, frag in fragments.items():
                if frag in self._planned.get(gid, ()):
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1

        plans: dict[str, list[Configuration]] = {}
        alts: dict[str, list[Configuration]] = {}
        fragment_warmth = self.alternatives and (
            isinstance(self.scheme, PartitionScheme) or len(fragments) == 1
        )
        for gid, strategy in self.strategies.items():
            plans[gid] = strategy.speculate()
            alts[gid] = strategy.speculate_alternatives() if fragment_warmth else []
        planned = 0
        fresh: dict[str, set[Configuration]] = {}
        for gid in sorted(plans):
            ever = self._ever.setdefault(gid, set())
            fresh[gid] = {
                c for c in plans[gid] + alts[gid] if c not in ever
            }
            planned += len(fresh[gid])
            ever |= fresh[gid]

        if isinstance(self.scheme, PartitionScheme):
            depth = max((len(p) for p in plans.values()), default=0)
        else:
            depth = min((len(p) for p in plans.values()), default=0)
        fragments = dict(fragments)
        batch = [self.scheme.combine(fragments)]
        for k in range(depth):
            frags_k = {
                gid: plans[gid][k] if k < len(plans[gid]) else fragments[gid]
                for gid in fragments
            }
            # Only submit depths that warm something: a column whose every
            # fragment was already speculated is warm from a prior step.
            if any(frags_k[gid] in fresh[gid] for gid in fresh):
                batch.append(self.scheme.combine(frags_k))
        for gid in sorted(alts):
            for cand in alts[gid]:
                if cand in fresh[gid]:
                    batch.append(self.scheme.combine({**fragments, gid: cand}))
        self.stats.planned += planned
        self.stats.batched += len(batch)
        try:
            self.stats.solves += prefetch_frontier(
                self.backend,
                scenario,
                batch,
                jobs=self.jobs,
                executor=self._executor,
            )
        except Exception:  # repro: noqa[RPL008] - advisory warm-up only
            # A failed prefetch (a worker dying, a backend fault mid-warm)
            # costs cache warmth, never correctness: the committed measure
            # path solves cold exactly what the prefetch would have.
            self.stats.prefetch_failures += 1
        self._planned = {
            gid: set(plans[gid]) | set(alts[gid]) for gid in plans
        }
