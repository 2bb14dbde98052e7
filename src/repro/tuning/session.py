"""Cluster tuning sessions: a tuning scheme driven against a backend.

A :class:`ClusterTuningSession` owns

* a :class:`~repro.model.base.Scenario` (the cluster + workload),
* a :class:`~repro.harmony.scaling.TuningScheme` (default method /
  duplication / partitioning),
* one Harmony tuning session per scheme group (the paper's "separate
  Active Harmony tuning server for each of the groups"), and
* an :class:`~repro.tuning.iteration.IterationRunner`.

Each :meth:`step` fetches every group's next configuration fragment,
combines them into a full cluster configuration, runs one measurement
iteration, and reports back — the whole-cluster WIPS to every group under
the default/duplication methods, or each work line's own WIPS under
partitioning (the per-group signal that §III.B credits for partitioning's
stability).
"""

from __future__ import annotations

from typing import Optional

from repro.faults.resilience import ResiliencePolicy, ResilienceStats
from repro.harmony.history import TuningHistory
from repro.harmony.parameter import Configuration
from repro.harmony.scaling import (
    DuplicationScheme,
    PartitionScheme,
    TuningScheme,
    identity_scheme,
)
from repro.harmony.server import HarmonyServer
from repro.harmony.simplex import SimplexOptions
from repro.harmony.speculate import SpeculativeEvaluator
from repro.model.base import (
    Measurement,
    PerformanceBackend,
    Scenario,
    SpeculationStats,
)
from repro.tuning.iteration import IterationRunner, IterationSpec

__all__ = ["ClusterTuningSession", "make_scheme"]


def make_scheme(scenario: Scenario, method: str, work_lines: int = 2) -> TuningScheme:
    """Build the §III.B tuning scheme named by ``method``.

    ``"default"`` — one server tunes every parameter of every node;
    ``"duplication"`` — tune one representative node per tier, copy within
    the tier; ``"partitioning"`` — one server per work line (the scenario
    must be able to form ``work_lines`` lines).
    """
    full_space = scenario.cluster.full_space()
    constraints = scenario.cluster.full_constraints()
    if method == "default":
        return identity_scheme(full_space, constraints=constraints)
    if method == "duplication":
        return DuplicationScheme(
            full_space, scenario.cluster.tiers(), constraints=constraints
        )
    if method == "partitioning":
        return PartitionScheme(
            full_space,
            scenario.cluster.work_lines(work_lines),
            constraints=constraints,
        )
    raise ValueError(
        f"unknown method {method!r}; expected default/duplication/partitioning"
    )


class ClusterTuningSession:
    """Drive one tuning scheme against one scenario."""

    def __init__(
        self,
        backend: PerformanceBackend,
        scenario: Scenario,
        scheme: Optional[TuningScheme] = None,
        strategy: str = "simplex",
        seed: int = 0,
        iteration_spec: Optional[IterationSpec] = None,
        simplex_options: Optional[SimplexOptions] = None,
        on_measure_error: str = "raise",
        resilience: Optional[ResiliencePolicy] = None,
        speculate: bool = False,
        journal=None,
    ) -> None:
        if on_measure_error not in ("raise", "penalize"):
            raise ValueError(
                f"on_measure_error must be 'raise' or 'penalize', "
                f"got {on_measure_error!r}"
            )
        self.on_measure_error = on_measure_error
        self.resilience = resilience
        self.resilience_stats = ResilienceStats()
        self.measure_failures = 0
        # Worst successful performance seen per group — the penalty value
        # for failed steps (a failure must never beat a real measurement).
        self._worst_perf: dict[str, float] = {}
        self._worst_wips: Optional[float] = None
        # Last successful step, for the "substitute" terminal response.
        self._last_good: Optional[tuple[Measurement, dict[str, float]]] = None
        self._consecutive_exhausted = 0
        self._failure_counts: dict[Configuration, int] = {}
        self._quarantined: set[Configuration] = set()
        self.scheme = scheme or identity_scheme(scenario.cluster.full_space())
        self.scenario = self._align_scenario(scenario)
        self.server = HarmonyServer(seed=seed, simplex_options=simplex_options)
        for group in self.scheme.groups:
            self.server.register(
                group.group_id,
                group.space,
                strategy=strategy,
                constraints=group.constraints,
            )
        self.runner = IterationRunner(
            backend, self.scenario, seed=seed, spec=iteration_spec
        )
        # Crash-safe checkpointing: a SessionJournal turns the runner into
        # a write-ahead-logged one.  Every outcome the session acts on is
        # fsync'd first; on --resume the journal replays those outcomes
        # and the session state reconstructs bit-identically.
        self.journal = journal
        if journal is not None:
            from repro.durability.journal import JournaledRunner

            self.runner = JournaledRunner(self.runner, journal)
        self.history = TuningHistory()
        # Speculative lookahead: forecast each group's certain next asks
        # and warm the backend's deterministic caches in one batch per
        # step.  Purely a prefetch — the ask/tell sequence, RNG streams
        # and measurements are bit-identical with it on or off.
        self.speculator: Optional[SpeculativeEvaluator] = None
        if speculate:
            self.speculator = SpeculativeEvaluator(
                backend,
                self.scheme,
                {
                    g.group_id: self.server.sessions[g.group_id].strategy
                    for g in self.scheme.groups
                },
            )

    def _align_scenario(self, scenario: Scenario) -> Scenario:
        """Attach the partition's work lines to the scenario if needed."""
        if not isinstance(self.scheme, PartitionScheme):
            return scenario
        lines = {
            g.group_id: tuple(
                sorted({name.split(".", 1)[0] for name in g.space.names})
            )
            for g in self.scheme.groups
        }
        return Scenario(
            cluster=scenario.cluster,
            mix=scenario.mix,
            population=scenario.population,
            catalog=scenario.catalog,
            behavior=scenario.behavior,
            work_lines=lines,
        )

    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        """Completed tuning iterations."""
        return len(self.history)

    @property
    def speculation_stats(self) -> Optional[SpeculationStats]:
        """The speculative evaluator's counters (None when not speculating)."""
        return self.speculator.stats if self.speculator is not None else None

    def set_mix(self, mix) -> None:
        """Switch the offered workload mix (tuner state is kept)."""
        self.scenario = self.scenario.with_mix(mix)
        self.runner.scenario = self.scenario
        if self.speculator is not None:
            self.speculator.reset()

    def set_cluster(self, new_cluster) -> None:
        """Re-bind the session to a reconfigured cluster (§IV moves).

        Only the *duplication* scheme survives a node changing tiers: its
        tuned space is tier-level (one entry per role parameter) and thus
        independent of which nodes serve which tier — exactly why the
        reconfiguration experiments tune with duplication.  The expansion
        map is rebuilt for the new layout; the Harmony sessions (and all
        their search state) carry over untouched.
        """
        if not isinstance(self.scheme, DuplicationScheme):
            raise TypeError(
                "only duplication-scheme sessions survive reconfiguration "
                f"(got {type(self.scheme).__name__})"
            )
        new_scheme = DuplicationScheme(
            new_cluster.full_space(),
            new_cluster.tiers(),
            constraints=new_cluster.full_constraints(),
        )
        if sorted(g.space.names for g in new_scheme.groups) != sorted(
            g.space.names for g in self.scheme.groups
        ):
            raise ValueError("reconfigured cluster has a different tier-level space")
        self.scheme = new_scheme
        self.scenario = self.scenario.with_cluster(new_cluster)
        self.runner.scenario = self.scenario
        if self.speculator is not None:
            # Plans made for the old layout would mis-score the next step;
            # warmed solutions for the old scenario are merely unused.
            self.speculator.scheme = new_scheme
            self.speculator.reset()

    def _replaying(self) -> bool:
        """True while a resumed run is consuming journaled outcomes."""
        return self.journal is not None and self.journal.replaying

    def group_history(self, group_id: str) -> TuningHistory:
        """One group's tuning history (its own fetch/report stream)."""
        return self.server.history(group_id)

    def current_configuration(self) -> Configuration:
        """The full configuration the next step() will measure."""
        fragments = {
            g.group_id: self.server.sessions[g.group_id].strategy.ask()
            for g in self.scheme.groups
        }
        return self.scheme.combine(fragments)

    def step(self) -> Measurement:
        """Run one tuning iteration: fetch → measure → report.

        A backend failure (a crashed measurement — the paper's servers did
        occasionally wedge under bad configurations) either propagates
        (``on_measure_error="raise"``), is *penalized* with the worst
        performance observed so far (never an artificial 0.0, which would
        let one unlucky failure steer the simplex permanently), or — when
        a :class:`ResiliencePolicy` is set — is retried with deterministic
        virtual-time backoff and then resolved by the policy's terminal
        response (penalty / skip / substitute), with quarantine and
        rollback on top.
        """
        fragments: dict[str, Configuration] = {}
        for group in self.scheme.groups:
            fragments[group.group_id] = self.server.fetch(group.group_id)
        full = self.scheme.combine(fragments)
        policy = self.resilience
        if policy is not None and full in self._quarantined:
            # Known-bad configuration: penalize without wasting a
            # measurement so the strategy moves on immediately.
            self.resilience_stats.quarantine_hits += 1
            return self._penalize(full)
        if self.speculator is not None and not self._replaying():
            # Warm the deterministic caches for this step's configuration
            # plus the strategies' certain next asks, in one fused batch.
            # Prefetching never changes measured values.
            # (During journal replay nothing is measured, so warming would
            # only waste the solves the journal exists to avoid.)
            self.speculator.prefetch(self.scenario, fragments, full)
        attempt = 0
        while True:
            try:
                measurement = self.runner.run(full)
                break
            except Exception:
                self.measure_failures += 1
                self.resilience_stats.failures += 1
                if policy is None:
                    if self.on_measure_error == "raise":
                        raise
                    return self._penalize(full)
                if attempt < policy.max_retries:
                    attempt += 1
                    self.resilience_stats.retries += 1
                    self._backoff(policy.delay(attempt))
                    continue
                return self._exhausted(full)
        self._record_success(full, measurement)
        return measurement

    # -- failure handling ----------------------------------------------
    def _record_success(self, full: Configuration, measurement: Measurement) -> None:
        """Report a successful measurement and refresh resilience state."""
        perfs: dict[str, float] = {}
        for group in self.scheme.groups:
            perf = self._group_performance(group.group_id, measurement)
            perfs[group.group_id] = perf
            worst = self._worst_perf.get(group.group_id)
            if worst is None or perf < worst:
                self._worst_perf[group.group_id] = perf
            self.server.report(group.group_id, perf)
        if self._worst_wips is None or measurement.wips < self._worst_wips:
            self._worst_wips = measurement.wips
        self._last_good = (measurement, perfs)
        self._consecutive_exhausted = 0
        self.history.append(full, measurement.wips)

    def _backoff(self, delay: int) -> None:
        """Wait ``delay`` ticks of *virtual* time before the retry.

        Backends that model a fault timeline (``FaultyBackend``) expose
        ``advance``; for everything else the wait is pure bookkeeping.
        There is deliberately no wall-clock sleep anywhere.
        """
        self.resilience_stats.backoff_ticks += delay
        advance = getattr(self.runner.backend, "advance", None)
        if advance is not None and delay > 0:
            advance(delay)

    def _failed_measurement(self, wips: float) -> Measurement:
        """The timeline entry recorded for a failed step."""
        return Measurement(
            wips=wips,
            raw_wips=wips,
            error_rate=1.0,
            response_time=float("inf"),
            utilization={},
        )

    def _penalize(self, full: Configuration) -> Measurement:
        """Report the worst-seen performance for a failed step."""
        self.resilience_stats.penalties += 1
        for group in self.scheme.groups:
            self.server.report(
                group.group_id, self._worst_perf.get(group.group_id, 0.0)
            )
        penalty = self._worst_wips if self._worst_wips is not None else 0.0
        self.history.append(full, penalty)
        return self._failed_measurement(penalty)

    def _exhausted(self, full: Configuration) -> Measurement:
        """Resolve a step whose retries are all spent."""
        policy = self.resilience
        assert policy is not None
        stats = self.resilience_stats
        stats.exhausted_steps += 1
        self._consecutive_exhausted += 1
        count = self._failure_counts.get(full, 0) + 1
        self._failure_counts[full] = count
        if (
            policy.quarantine_after
            and count >= policy.quarantine_after
            and full not in self._quarantined
        ):
            self._quarantined.add(full)
            stats.quarantined = len(self._quarantined)
        if (
            policy.rollback_after
            and self._consecutive_exhausted >= policy.rollback_after
        ):
            rolled = self._rollback(full)
            if rolled is not None:
                return rolled
        if policy.on_exhausted == "substitute" and self._last_good is not None:
            stats.substitutions += 1
            measurement, perfs = self._last_good
            for group in self.scheme.groups:
                self.server.report(group.group_id, perfs[group.group_id])
            self.history.append(full, measurement.wips)
            return measurement
        if policy.on_exhausted == "skip":
            # Report nothing: ask() is idempotent until tell(), so the
            # next step re-asks this configuration — the failure is
            # attributed to the environment, not the configuration.
            stats.skips += 1
            penalty = self._worst_wips if self._worst_wips is not None else 0.0
            return self._failed_measurement(penalty)
        return self._penalize(full)

    def _rollback(self, full: Configuration) -> Optional[Measurement]:
        """Sustained failure: deploy the best-known configuration.

        The failing candidate is penalized (the search must move away),
        while the *measured* — deployed — configuration is the best seen
        so far, so the service keeps producing its best-known throughput.
        Returns None when there is no distinct best or it too fails (a
        full outage), letting the terminal response apply instead.
        """
        if not len(self.history):
            return None
        best = self.history.best_configuration()
        if best == full:
            return None
        try:
            measurement = self.runner.run(best)
        except Exception:
            return None
        self.resilience_stats.rollbacks += 1
        self.resilience_stats.penalties += 1
        for group in self.scheme.groups:
            self.server.report(
                group.group_id, self._worst_perf.get(group.group_id, 0.0)
            )
        self.history.append(best, measurement.wips)
        return measurement

    def _group_performance(self, group_id: str, measurement: Measurement) -> float:
        if measurement.per_line_wips:
            try:
                return measurement.per_line_wips[group_id]
            except KeyError:
                raise KeyError(
                    f"backend produced no per-line WIPS for group {group_id!r}"
                ) from None
        return measurement.wips

    def run(self, iterations: int) -> TuningHistory:
        """Run ``iterations`` tuning steps; returns the global history."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        for _ in range(iterations):
            self.step()
        return self.history

    def best_configuration(self) -> Configuration:
        """Best full configuration measured so far (global WIPS)."""
        return self.history.best_configuration()

    def measure_baseline(self, configuration: Optional[Configuration] = None,
                         iterations: int = 10) -> TuningHistory:
        """Measure a fixed configuration (default: the cluster defaults).

        Used for the Table 4 "None (no tuning)" row; runs on the same seed
        stream as tuning iterations but does not touch the tuner state.
        """
        cfg = configuration or self.scenario.cluster.default_configuration()
        out = TuningHistory()
        for i in range(iterations):
            try:
                m = self.runner.run(cfg, index=10_000 + i)
            except Exception:
                if self.resilience is None and self.on_measure_error == "raise":
                    raise
                # A reference measurement, not tuner feedback: a failed
                # draw is simply dropped rather than penalized.
                continue
            out.append(cfg, m.wips)
        return out
