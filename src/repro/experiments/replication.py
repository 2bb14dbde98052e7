"""Replication: are the conclusions stable across seeds?

Every driver in this package is deterministic per seed; a single run could
still be a lucky draw.  :func:`replicate` re-runs a scalar-producing
experiment under several seeds and summarizes the distribution, and
:func:`replicate_fig4_improvements` applies that to the headline numbers
(the per-workload improvements of Figure 4), so EXPERIMENTS.md's claims can
be quoted with spread rather than as point estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.util.stats import RunningStats
from repro.util.tables import Table

__all__ = ["Replication", "replicate", "replicate_fig4_improvements"]


@dataclass(frozen=True)
class Replication:
    """Distribution of one scalar metric over replicated runs."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("replication needs at least one run")

    @property
    def stats(self) -> RunningStats:
        """Mean / spread accumulator over the runs."""
        return RunningStats(self.values)

    @property
    def all_positive(self) -> bool:
        """True when every replication agreed on the sign."""
        return all(v > 0 for v in self.values)


def _call_metric(
    metric: Callable[[ExperimentConfig], float],
    config: ExperimentConfig,
) -> float:
    """Worker: evaluate one metric under one seeded config."""
    return metric(config)


def replicate(
    name: str,
    metric: Callable[[ExperimentConfig], float],
    config: ExperimentConfig,
    seeds: Sequence[int],
) -> Replication:
    """Run ``metric`` under each seed (config otherwise unchanged).

    Seeds are independent runs, so they fan over ``config.jobs`` workers;
    each inner run then executes serially (``jobs=1``) to keep the pool
    flat.  With ``config.jobs > 1`` the metric must be picklable (a
    module-level function, not a lambda).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    executor = ParallelExecutor(config.jobs, engine=config.engine)
    inner_jobs = 1 if executor.jobs > 1 else config.jobs
    results = executor.run(
        [
            RunSpec(
                key=("seed", seed),
                fn=_call_metric,
                kwargs={
                    "metric": metric,
                    "config": replace(config, seed=seed, jobs=inner_jobs),
                },
            )
            for seed in seeds
        ]
    )
    return Replication(
        name=name, values=tuple(results[("seed", s)] for s in seeds)
    )


def _fig4_improvements(config: ExperimentConfig) -> dict[str, float]:
    """Worker: one seed's Figure 4 run, reduced to its improvements."""
    result = fig4.run(config)
    return {mix: result.improvement(mix) for mix in fig4.MIX_ORDER}


def replicate_fig4_improvements(
    config: ExperimentConfig,
    seeds: Sequence[int],
) -> Mapping[str, Replication]:
    """Per-workload Figure 4 improvements across seeds.

    Returns one :class:`Replication` per mix.  (Each seed re-runs the full
    three-mix tuning pipeline, so cost = ``len(seeds)`` × one Figure 4
    run; the seeds fan over ``config.jobs`` workers.)
    """
    executor = ParallelExecutor(config.jobs, engine=config.engine)
    inner_jobs = 1 if executor.jobs > 1 else config.jobs
    results = executor.run(
        [
            RunSpec(
                key=("seed", seed),
                fn=_fig4_improvements,
                kwargs={"config": replace(config, seed=seed, jobs=inner_jobs)},
            )
            for seed in seeds
        ]
    )
    return {
        mix: Replication(
            name=f"fig4-improvement-{mix}",
            values=tuple(results[("seed", s)][mix] for s in seeds),
        )
        for mix in fig4.MIX_ORDER
    }


def replication_table(replications: Mapping[str, Replication]) -> Table:
    """Render replications as mean ± sd (min..max, n)."""
    table = Table(
        "Replication: metric distribution across seeds",
        ["Metric", "Mean", "Std dev", "Min", "Max", "Runs", "Sign-stable"],
    )
    for name, rep in replications.items():
        s = rep.stats
        table.add_row(
            name,
            f"{s.mean * 100:+.1f}%",
            f"{s.stddev * 100:.1f}%",
            f"{s.minimum * 100:+.1f}%",
            f"{s.maximum * 100:+.1f}%",
            s.count,
            "yes" if rep.all_positive else "no",
        )
    return table
