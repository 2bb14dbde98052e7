"""Table 4: cluster-tuning methods compared.

On a multi-node cluster (two nodes per tier — the smallest layout that
admits two work lines), four rows are produced exactly as in the paper:

* **None (no tuning)** — the default configuration measured repeatedly,
* **Default method** — one Harmony server tunes all 46 parameters,
* **Parameter duplication** — one server tunes 23 tier-level parameters,
  values copied within each tier,
* **Parameter partitioning** — one server per work line, each fed its own
  line's WIPS.

Per row: best-configuration WIPS after the tuning run (re-measured on
fresh noise), the standard deviation over the second half of the run, the
improvement over no tuning, and the iterations-to-convergence estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import (
    ExperimentConfig,
    make_backend,
    make_executor,
    remeasure,
)
from repro.harmony.history import TuningHistory
from repro.model.base import PerformanceBackend, Scenario
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = ["MethodRow", "Table4Result", "run", "METHODS"]

METHODS = ("default", "duplication", "partitioning")


@dataclass(frozen=True)
class MethodRow:
    """One Table 4 row."""

    method: str
    wips: float
    stddev: float
    improvement: float
    iterations_to_converge: int
    tuned_dimensions: int


@dataclass(frozen=True)
class Table4Result:
    """All four rows plus the underlying histories."""

    baseline_wips: float
    baseline_stddev: float
    rows: Mapping[str, MethodRow]
    histories: Mapping[str, TuningHistory]

    def to_table(self) -> Table:
        """Render the result as a paper-style table."""
        table = Table(
            "TABLE 4: performance of different methods for cluster tuning",
            [
                "Tuning method",
                "WIPS (best, re-measured)",
                "Std dev (2nd window)",
                "Improvement",
                "Iterations",
                "Dims/server",
            ],
        )
        table.add_row(
            "None (no tuning)",
            f"{self.baseline_wips:.1f}",
            f"{self.baseline_stddev:.1f}",
            "-",
            "-",
            "-",
        )
        labels = {
            "default": "Default method",
            "duplication": "Parameter duplication",
            "partitioning": "Parameter partitioning",
        }
        for method in METHODS:
            row = self.rows[method]
            table.add_row(
                labels[method],
                f"{row.wips:.1f}",
                f"{row.stddev:.1f}",
                f"{row.improvement * 100:.1f}%",
                row.iterations_to_converge,
                row.tuned_dimensions,
            )
        return table


def _measure_baseline(
    cfg: ExperimentConfig,
    mix_name: str,
    cluster: ClusterSpec,
    backend: PerformanceBackend | None,
) -> dict:
    """Worker: the "None (no tuning)" row."""
    backend = backend or make_backend(cfg)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.cluster_population,
    )
    probe = ClusterTuningSession(
        backend, scenario, seed=derive_seed(cfg.seed, "table4-baseline")
    )
    stats = probe.measure_baseline(
        iterations=max(cfg.baseline_iterations, 2)
    ).window_stats(0)
    return {"mean": stats.mean, "stddev": stats.stddev}


def _run_method(
    method: str,
    cfg: ExperimentConfig,
    mix_name: str,
    cluster: ClusterSpec,
    work_lines: int,
    backend: PerformanceBackend | None,
) -> dict:
    """Worker: one tuning method's full run (improvement filled in later —
    it needs the baseline row, which runs concurrently)."""
    backend = backend or make_backend(cfg)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.cluster_population,
    )
    scheme = make_scheme(scenario, method, work_lines=work_lines)
    session = ClusterTuningSession(
        backend,
        scenario,
        scheme=scheme,
        seed=derive_seed(cfg.seed, "table4", method),
        speculate=cfg.speculate,
    )
    session.run(cfg.iterations)
    history = session.history
    best_stats = remeasure(
        backend,
        session.scenario,
        history.best_configuration(),
        seed=derive_seed(cfg.seed, "table4-best", method),
        iterations=cfg.baseline_iterations,
    )
    return {
        "wips": best_stats.mean,
        "stddev": history.window_stats(cfg.window_start()).stddev,
        "iterations_to_converge": history.iterations_to_converge(),
        "tuned_dimensions": scheme.max_group_dimension,
        "history": history,
    }


def run(
    config: ExperimentConfig | None = None,
    backend: PerformanceBackend | None = None,
    mix_name: str = "shopping",
    cluster: Optional[ClusterSpec] = None,
    work_lines: int = 2,
) -> Table4Result:
    """Run the §III.B cluster-tuning comparison.

    The baseline probe and the three method runs are independent — one
    four-spec plan fanned over ``cfg.jobs`` workers, results identical to
    the serial loop at every jobs setting.
    """
    cfg = config or ExperimentConfig()
    cluster = cluster or ClusterSpec.three_tier(2, 2, 2)
    executor = make_executor(cfg, "table4")
    shared = backend if backend is not None else (
        make_backend(cfg) if executor.jobs == 1 or executor.engine == "inline"
        else None
    )

    common = {
        "cfg": cfg,
        "mix_name": mix_name,
        "cluster": cluster,
        "backend": shared,
    }
    results = executor.run(
        [RunSpec(key="baseline", fn=_measure_baseline, kwargs=common)]
        + [
            RunSpec(
                key=("method", method),
                fn=_run_method,
                kwargs={**common, "method": method, "work_lines": work_lines},
            )
            for method in METHODS
        ]
    )

    baseline = results["baseline"]
    rows: dict[str, MethodRow] = {}
    histories: dict[str, TuningHistory] = {}
    for method in METHODS:
        r = results[("method", method)]
        rows[method] = MethodRow(
            method=method,
            wips=r["wips"],
            stddev=r["stddev"],
            improvement=r["wips"] / baseline["mean"] - 1.0,
            iterations_to_converge=r["iterations_to_converge"],
            tuned_dimensions=r["tuned_dimensions"],
        )
        histories[method] = r["history"]

    executor.close()
    return Table4Result(
        baseline_wips=baseline["mean"],
        baseline_stddev=baseline["stddev"],
        rows=rows,
        histories=histories,
    )
