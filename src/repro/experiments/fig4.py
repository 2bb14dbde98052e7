"""Figure 4 (and the §III.A narrative): per-workload tuning and the
cross-workload configuration matrix.

For each of the three TPC-W mixes the driver runs a full Active Harmony
tuning session (default method, all 23 parameters of the three servers) on
the single-node-per-tier cluster, exactly as §III.A does.  It then applies
each workload's best configuration to the other two workloads — the paper's
Figure 4 — demonstrating that "there is no universal configuration good for
all kinds of workloads".

Reported per mix:

* baseline (default configuration) mean WIPS,
* the best tuned configuration's *re-measured* WIPS and improvement,
* the §III.A window statistics: fraction of second-100 iterations beating
  the default, and the mean improvement over that window,
* the 3×3 cross-application matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import (
    ExperimentConfig,
    make_executor,
    make_backend,
    remeasure,
)
from repro.harmony.history import TuningHistory
from repro.harmony.parameter import Configuration
from repro.model.base import PerformanceBackend, Scenario
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.parallel.stats import merge_cache_stats, track_backend
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = ["Fig4Result", "run"]

MIX_ORDER = ("browsing", "shopping", "ordering")


@dataclass(frozen=True)
class Fig4Result:
    """Everything Figure 4 / Table 3 / the §III.A text report."""

    baselines: Mapping[str, float]
    best_configs: Mapping[str, Configuration]
    #: cross[(config_mix, applied_mix)] = re-measured WIPS.
    cross: Mapping[tuple[str, str], float]
    histories: Mapping[str, TuningHistory]
    #: Fraction of second-window iterations beating the baseline, per mix.
    fraction_above: Mapping[str, float]
    #: Mean relative improvement over the second window, per mix.
    window_improvement: Mapping[str, float]
    #: Measurement/solution cache counters summed over all runs (None when
    #: caching was disabled).  Diagnostic only — excluded from
    #: :meth:`canonical_dict`, since counters depend on the jobs setting
    #: while the numbers above never do.
    cache_stats: Optional[Mapping[str, float]] = field(default=None, compare=False)

    def canonical_dict(self) -> dict:
        """The result's numbers in a JSON-stable form.

        Serializing this dict byte-compares runs across ``--jobs``
        settings; cache counters are deliberately excluded (a worker pool
        splits the caches, so the counters — unlike the results — depend
        on the execution layout).
        """
        return {
            "baselines": {m: self.baselines[m] for m in MIX_ORDER},
            "best_configs": {
                m: dict(sorted(self.best_configs[m].items())) for m in MIX_ORDER
            },
            "cross": {
                f"{cfg}->{applied}": self.cross[(cfg, applied)]
                for cfg in MIX_ORDER
                for applied in MIX_ORDER
            },
            "fraction_above": {m: self.fraction_above[m] for m in MIX_ORDER},
            "window_improvement": {
                m: self.window_improvement[m] for m in MIX_ORDER
            },
            "history_wips": {
                m: [r.performance for r in self.histories[m].records]
                for m in MIX_ORDER
            },
        }

    def improvement(self, mix: str) -> float:
        """Best-config improvement over the default configuration."""
        return self.cross[(mix, mix)] / self.baselines[mix] - 1.0

    def to_matrix_table(self) -> Table:
        """The Figure 4 matrix: best configs applied across workloads."""
        table = Table(
            "Figure 4: best configuration per workload applied to each workload (WIPS)",
            ["Applied to \\ Tuned for", *MIX_ORDER, "default config"],
        )
        for applied in MIX_ORDER:
            table.add_row(
                applied,
                *(f"{self.cross[(cfg, applied)]:.1f}" for cfg in MIX_ORDER),
                f"{self.baselines[applied]:.1f}",
            )
        return table

    def to_improvement_table(self) -> Table:
        """The small table under Figure 4 (improvement vs default)."""
        table = Table(
            "Figure 4 (bottom): improvement of the best configuration vs default",
            ["", *MIX_ORDER],
        )
        table.add_row(
            "Improvement vs default",
            *(f"{self.improvement(m) * 100:.0f}%" for m in MIX_ORDER),
        )
        table.add_row(
            "Second-window iterations beating default",
            *(f"{self.fraction_above[m] * 100:.0f}%" for m in MIX_ORDER),
        )
        table.add_row(
            "Mean second-window improvement",
            *(f"{self.window_improvement[m] * 100:.1f}%" for m in MIX_ORDER),
        )
        return table


def _tune_mix(
    mix_name: str,
    cfg: ExperimentConfig,
    backend: PerformanceBackend | None,
) -> dict:
    """Stage-1 worker: tune one workload mix end to end.

    Self-contained and picklable; builds its own backend when none is
    shared (worker processes cannot share one).  All randomness comes from
    the seed derived here, so the result is identical wherever it runs.
    """
    backend = backend or make_backend(cfg)
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.population,
    )
    seed = derive_seed(cfg.seed, "fig4", mix_name)
    session = ClusterTuningSession(
        backend,
        scenario,
        scheme=make_scheme(scenario, "default"),
        seed=seed,
        speculate=cfg.speculate,
    )
    baseline = session.measure_baseline(
        iterations=cfg.baseline_iterations
    ).window_stats(0)
    session.run(cfg.iterations)
    history = session.history
    start = cfg.window_start()
    window = history.window_stats(start)
    return {
        "baseline": baseline.mean,
        "best_config": history.best_configuration(),
        "history": history,
        "fraction_above": history.fraction_above(baseline.mean, start),
        "window_improvement": window.mean / baseline.mean - 1.0,
    }


def _cross_cell(
    config_mix: str,
    applied_mix: str,
    best_config: Configuration,
    cfg: ExperimentConfig,
    backend: PerformanceBackend | None,
) -> dict:
    """Stage-2 worker: re-measure one best config under one applied mix."""
    backend = backend or make_backend(cfg)
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[applied_mix],
        population=cfg.population,
    )
    stats = remeasure(
        backend,
        scenario,
        best_config,
        seed=derive_seed(cfg.seed, "fig4-cross", config_mix, applied_mix),
        iterations=cfg.baseline_iterations,
    )
    return {"wips": stats.mean}


def run(
    config: ExperimentConfig | None = None,
    backend: PerformanceBackend | None = None,
) -> Fig4Result:
    """Run the §III.A / Figure 4 experiment.

    The three per-mix tuning runs are independent, as are the nine cross
    cells once the best configurations exist; they form two stages of a
    run plan fanned over ``cfg.jobs`` workers.  Per-run seeds are derived
    from the root seed exactly as the serial loop derived them, so the
    result is bit-identical at every jobs setting.
    """
    cfg = config or ExperimentConfig()
    executor = make_executor(cfg, "fig4")
    # A backend instance is shared across runs only in-process: workers in
    # a pool each build their own — or, under the shared engine, adopt the
    # fleet's persistent one.  Tracked so the executor's per-spec cache
    # accounting observes it wherever the specs execute.
    shared = track_backend(backend) if backend is not None else (
        make_backend(cfg) if executor.jobs == 1 or executor.engine == "inline"
        else None
    )

    tuned = executor.run(
        [
            RunSpec(
                key=mix_name,
                fn=_tune_mix,
                kwargs={"mix_name": mix_name, "cfg": cfg, "backend": shared},
            )
            for mix_name in MIX_ORDER
        ]
    )
    stage_stats = [executor.cache_stats]
    baselines = {m: tuned[m]["baseline"] for m in MIX_ORDER}
    best_configs = {m: tuned[m]["best_config"] for m in MIX_ORDER}
    histories = {m: tuned[m]["history"] for m in MIX_ORDER}
    fraction_above = {m: tuned[m]["fraction_above"] for m in MIX_ORDER}
    window_improvement = {m: tuned[m]["window_improvement"] for m in MIX_ORDER}

    cells = executor.run(
        [
            RunSpec(
                key=(config_mix, applied_mix),
                fn=_cross_cell,
                kwargs={
                    "config_mix": config_mix,
                    "applied_mix": applied_mix,
                    "best_config": best_configs[config_mix],
                    "cfg": cfg,
                    "backend": shared,
                },
            )
            for config_mix in MIX_ORDER
            for applied_mix in MIX_ORDER
        ]
    )
    cross = {key: cell["wips"] for key, cell in cells.items()}
    stage_stats.append(executor.cache_stats)

    # Counter deltas are captured per spec where it executed (worker or
    # parent) and merged by the executor — the same numbers whether the
    # caches lived in one shared backend or in per-worker copies.
    cache_stats = merge_cache_stats(stage_stats)
    executor.close()

    return Fig4Result(
        baselines=baselines,
        best_configs=best_configs,
        cross=cross,
        histories=histories,
        fraction_above=fraction_above,
        window_improvement=window_improvement,
        cache_stats=cache_stats,
    )
