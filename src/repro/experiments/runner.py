"""Shared experiment configuration and helpers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.harmony.parameter import Configuration
from repro.model.analytic import AnalyticBackend
from repro.model.base import MemoizedBackend, PerformanceBackend, Scenario
from repro.parallel.engine import SharedEngine, resolve_engine
from repro.parallel.stats import track_backend
from repro.util.rng import derive_seed
from repro.util.stats import RunningStats

__all__ = [
    "ExperimentConfig",
    "experiment_journal",
    "make_executor",
    "remeasure",
    "make_backend",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    The defaults reproduce the paper's protocol (200 tuning iterations,
    evaluation windows over the second 100).  Tests scale ``iterations``
    down; results remain qualitatively stable because the backend and noise
    are deterministic per seed.
    """

    #: Tuning iterations per run (the paper uses 200).
    iterations: int = 200
    #: Root seed; every stochastic stream derives from it.
    seed: int = 17
    #: Emulated browsers for single-node-per-tier scenarios.
    population: int = 750
    #: Emulated browsers for the multi-node cluster scenarios (Table 4, Fig 7).
    cluster_population: int = 2000
    #: Iterations used when re-measuring a fixed configuration.
    baseline_iterations: int = 20
    #: Window (start fraction) used for "second 100 iterations" statistics.
    stats_window: float = 0.5
    #: Worker processes for independent runs (1 = the legacy serial path).
    #: Results are bit-identical at every setting; only wall-clock changes.
    jobs: int = 1
    #: Memoize measurements (the ``--no-cache`` switch turns this off).
    memoize: bool = True
    #: Speculatively prefetch the tuning loop's certain next asks
    #: (the ``--speculate`` switch; results are bit-identical either way).
    speculate: bool = False
    #: Record simulator observability diagnostics (kernel entry counts,
    #: per-phase wall-clock) in the DES arms' measurements
    #: (the ``--profile`` switch).  Analytic measurements are unaffected
    #: and results are bit-identical either way.
    profile: bool = False
    #: Execution engine for the run plan (the ``--engine`` axis):
    #: ``inline`` (serial in-process) or ``shared`` (persistent fleet +
    #: cross-run shared cache); None picks ``shared`` when ``jobs > 1``
    #: and ``inline`` otherwise.  Results are bit-identical at every
    #: setting.
    engine: Optional[str] = None
    #: Write-ahead journal path for the fan-out drivers (``--journal``).
    #: Completed run specs are committed as they finish; None disables.
    journal: Optional[str] = None
    #: Resume from ``journal`` instead of starting fresh (``--resume``).
    resume: bool = False

    def window_start(self) -> int:
        """First iteration of the evaluation window."""
        return int(self.iterations * self.stats_window)

    def scaled(self, iterations: int) -> "ExperimentConfig":
        """A copy with a different iteration budget (for tests)."""
        return replace(self, iterations=iterations)

    def journal_header(self, experiment: str) -> dict:
        """The result-relevant fingerprint a journal is bound to.

        Parallelism knobs (jobs/engine/memoize/speculate) are deliberately
        absent: they never change results, so a run may legitimately be
        resumed with different ones (e.g. inline on a smaller machine).
        """
        return {
            "experiment": experiment,
            "iterations": self.iterations,
            "seed": self.seed,
            "population": self.population,
            "cluster_population": self.cluster_population,
            "baseline_iterations": self.baseline_iterations,
            "stats_window": self.stats_window,
        }


def make_backend(config: Optional[ExperimentConfig] = None) -> PerformanceBackend:
    """The default backend used by the experiment drivers.

    With memoization on (the default) the analytic backend is wrapped in a
    :class:`~repro.model.base.MemoizedBackend`, so repeated evaluations of
    one (scenario, configuration, seed) point are served from the cache.
    Cached results are bit-identical to fresh ones, so this changes only
    wall-clock time, never numbers.

    When the config's engine resolves to ``shared`` the invocation's
    persistent :class:`~repro.parallel.engine.SharedEngine` backend is
    returned instead of a fresh one: its caches gain the entries fleet
    workers compute and survive across experiments.  (Inside
    a fleet worker this resolves to the worker's own persistent backend —
    the worker engine singleton — so spec functions can call this
    unconditionally.)

    Every constructed backend is registered with
    :func:`repro.parallel.stats.track_backend` so executor-level cache
    accounting observes it wherever it lives.
    """
    if config is not None and not config.memoize:
        # The true uncached path: no measurement memo, no solution memo.
        return track_backend(AnalyticBackend(solution_cache_size=0))
    if (
        config is not None
        and resolve_engine(config.engine, config.jobs) == "shared"
    ):
        return SharedEngine.instance().backend()
    return track_backend(MemoizedBackend(AnalyticBackend()))


def experiment_journal(config: ExperimentConfig, experiment: str):
    """The config's :class:`ExperimentJournal` for ``experiment`` (or None).

    Fresh runs refuse an existing journal file (pass ``--resume``);
    resumed runs validate the stored header against
    :meth:`ExperimentConfig.journal_header` and serve every committed
    spec without re-executing it.
    """
    if config.journal is None:
        return None
    from repro.durability.journal import ExperimentJournal

    return ExperimentJournal(
        config.journal,
        config.journal_header(experiment),
        resume=config.resume,
    )


def make_executor(config: ExperimentConfig, experiment: str):
    """The fan-out drivers' :class:`ParallelExecutor`, journal attached."""
    from repro.parallel.executor import ParallelExecutor

    return ParallelExecutor(
        config.jobs,
        engine=config.engine,
        journal=experiment_journal(config, experiment),
    )


def remeasure(
    backend: PerformanceBackend,
    scenario: Scenario,
    configuration: Configuration,
    seed: int,
    iterations: int = 20,
) -> RunningStats:
    """Re-measure a fixed configuration over fresh noise draws.

    The best *iteration* of a noisy tuning run overstates the best
    *configuration* (it is the luckiest draw among hundreds); re-measuring
    the chosen configuration on fresh seeds gives the honest number that
    experiment reports compare against baselines.

    All draws are submitted as one measurement batch: backends that
    amortize work across points (the analytic backend solves the
    configuration once and re-draws only the noise) exploit that, and the
    statistics fold in request order, so the result equals the plain
    per-point loop bit for bit.
    """
    measurements = backend.measure_batch(
        scenario,
        [
            (configuration, derive_seed(seed, "remeasure", i))
            for i in range(iterations)
        ],
    )
    stats = RunningStats()
    for m in measurements:
        stats.add(m.wips)
    return stats
