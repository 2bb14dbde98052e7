"""The §III.A diagnostic claim: which parameters actually matter.

The paper reports that tuning "is also helpful ... to identify those
parameters that actually affect system performance", naming concrete
findings: the proxy memory-cache parameters matter, the eviction watermarks
``cache_swap_low`` / ``cache_swap_high`` "do not impact the overall system
performance", the thread counts matter for the ordering workload, and the
database caches matter when database utilization is high.

This driver measures exactly that with one-at-a-time sweeps per workload
and checks the orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.analysis.sensitivity import SensitivityReport, sensitivity_report
from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import (
    ExperimentConfig,
    make_executor,
    make_backend,
)
from repro.model.base import PerformanceBackend, Scenario
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.parallel.stats import track_backend
from repro.tpcw.interactions import STANDARD_MIXES
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = ["SensitivityResult", "run", "KEY_PARAMETERS"]

#: The parameters the paper's §III.A narrative names explicitly.
KEY_PARAMETERS = (
    "proxy0.cache_mem",
    "proxy0.maximum_object_size_in_memory",
    "proxy0.cache_swap_low",
    "proxy0.cache_swap_high",
    "proxy0.store_objects_per_bucket",
    "app0.maxProcessors",
    "app0.bufferSize",
    "db0.table_cache",
    "db0.binlog_cache_size",
    "db0.join_buffer_size",
)


@dataclass(frozen=True)
class SensitivityResult:
    """Per-mix sensitivity reports over the key parameters."""

    reports: Mapping[str, SensitivityReport]
    #: Measurement/solution cache counters summed over all sweeps (None
    #: when caching was disabled).  Diagnostic only: counters depend on
    #: the jobs setting, the reports never do.
    cache_stats: Optional[Mapping[str, float]] = field(default=None, compare=False)

    def effect(self, mix: str, name: str) -> float:
        """One parameter's effect size under one mix."""
        return self.reports[mix].curve(name).effect_size

    def to_table(self) -> Table:
        mixes = list(self.reports)
        table = Table(
            "Parameter effect sizes per workload (one-at-a-time sweeps)",
            ["Parameter", *(f"{m} effect" for m in mixes)],
        )
        for name in KEY_PARAMETERS:
            table.add_row(
                name,
                *(f"{self.effect(m, name) * 100:.1f}%" for m in mixes),
            )
        return table

    def cache_summary(self) -> str:
        """One-line cache-counter report for experiment logs."""
        if not self.cache_stats:
            return "caches: disabled"
        s = self.cache_stats
        return (
            "caches: measurement "
            f"{int(s.get('measurement_hits', 0))} hits / "
            f"{int(s.get('measurement_misses', 0))} misses "
            f"({s.get('measurement_hit_rate', 0.0) * 100:.0f}% hit rate), "
            "solution "
            f"{int(s.get('solution_hits', 0))} hits / "
            f"{int(s.get('solution_misses', 0))} misses "
            f"({s.get('solution_hit_rate', 0.0) * 100:.0f}% hit rate)"
        )


def _sweep_mix(
    mix_name: str,
    cfg: ExperimentConfig,
    points: int,
    repeats: int,
    backend: PerformanceBackend | None,
) -> dict:
    """Worker: the full key-parameter sweep under one mix."""
    backend = backend or make_backend(cfg)
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.population,
    )
    report = sensitivity_report(
        backend,
        scenario,
        names=KEY_PARAMETERS,
        points=points,
        repeats=repeats,
        seed=derive_seed(cfg.seed, "sensitivity", mix_name),
    )
    return {"report": report}


def run(
    config: ExperimentConfig | None = None,
    backend: PerformanceBackend | None = None,
    points: int = 4,
    repeats: int = 3,
) -> SensitivityResult:
    """Sweep the key parameters under every standard mix.

    The three per-mix sweeps are independent and fan over ``cfg.jobs``
    workers; within each sweep the points go to the backend as one batch
    (batched MVA + noise-repeat solution reuse).  Reports are
    bit-identical at every jobs setting.
    """
    cfg = config or ExperimentConfig()
    executor = make_executor(cfg, "sensitivity")
    shared = track_backend(backend) if backend is not None else (
        make_backend(cfg) if executor.jobs == 1 or executor.engine == "inline"
        else None
    )
    results = executor.run(
        [
            RunSpec(
                key=mix_name,
                fn=_sweep_mix,
                kwargs={
                    "mix_name": mix_name,
                    "cfg": cfg,
                    "points": points,
                    "repeats": repeats,
                    "backend": shared,
                },
            )
            for mix_name in STANDARD_MIXES
        ]
    )
    # Per-spec counter deltas, captured where each spec executed and
    # merged by the executor (see repro.parallel.stats).
    cache_stats = executor.cache_stats
    executor.close()
    return SensitivityResult(
        reports={m: results[m]["report"] for m in STANDARD_MIXES},
        cache_stats=cache_stats,
    )
