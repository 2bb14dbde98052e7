"""Scale experiment: tune a wide cluster at an extreme population.

The paper's testbed tops out at a handful of nodes and 750 emulated
browsers; this extension exercises the approximation stack end to end on
the kind of topology the paper's method is *about* — wide homogeneous
tiers behind a load balancer:

* a :meth:`~repro.cluster.topology.ClusterSpec.wide` cluster (64/128/16
  by default) is tuned with the paper's duplication method at N up to
  10^6, the backend auto-selecting fluid + hierarchical approximation,
* a small-topology **agreement arm** measures the same default
  configuration under every forced approximation mode with noise
  disabled, reporting each mode's relative error against the exact
  per-node Schweitzer solve,
* a **DES validation arm** replays the agreement topology through the
  discrete-event simulator and reports its WIPS ratio against the exact
  analytic row — a model-free cross-check of the whole approximation
  stack.  The fast event kernel makes the full 4/4/2 topology at the
  agreement population affordable here (the earlier check lived in the
  benchmark only, on a 2/2/1 cluster at N=600).

The baseline probe, the tuning run and the agreement measurements are
independent — one plan fanned over ``cfg.jobs`` workers, bit-identical
to the serial loop at every jobs/engine setting.
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
from repro.model.analytic import APPROXIMATIONS, AnalyticBackend
from repro.model.base import PerformanceBackend, Scenario
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = ["AgreementRow", "ScaleResult", "run", "AGREEMENT_MODES"]

#: Forced approximation modes compared in the agreement arm ("auto" is
#: excluded: on the small agreement topology it resolves to one of these).
AGREEMENT_MODES = tuple(m for m in APPROXIMATIONS if m != "auto")

#: Population of the wide-cluster tuning arm (the scale axis headline).
SCALE_POPULATION = 1_000_000

#: Simulated-time scale of the DES validation arm (paper cycle × scale).
DES_TIME_SCALE = 0.05


@dataclass(frozen=True)
class AgreementRow:
    """One approximation mode's noise-free WIPS on the small topology."""

    mode: str
    wips: float
    #: Relative error against the ``exact`` row (0.0 for exact itself).
    relative_error: float


@dataclass(frozen=True)
class ScaleResult:
    """The wide-cluster tuning outcome plus the approximation audit."""

    cluster_name: str
    num_nodes: int
    population: int
    baseline_wips: float
    baseline_stddev: float
    tuned_wips: float
    tuned_stddev: float
    improvement: float
    iterations_to_converge: int
    #: ``solver.fluid`` diagnostic of the baseline solve (1.0 = fluid).
    fluid: float
    #: Nodes folded away by hierarchical aggregation in the baseline solve.
    aggregated_nodes: float
    agreement_population: int
    agreement: Mapping[str, AgreementRow]
    #: WIPS the discrete-event simulator measured on the agreement topology.
    des_wips: float
    #: DES WIPS over the exact analytic row (1.0 = perfect agreement).
    des_over_exact_ratio: float
    #: Population the DES validation arm simulated.
    des_population: int
    #: ``profile.*`` diagnostics of the DES arm (``cfg.profile``; else None).
    des_profile: Optional[Mapping[str, float]]
    history: TuningHistory

    def to_table(self) -> Table:
        """Render the result as a paper-style table."""
        table = Table(
            f"SCALE: {self.cluster_name} ({self.num_nodes} nodes), "
            f"N={self.population:,}",
            ["Arm", "WIPS", "Std dev", "Improvement", "Solver"],
        )
        solver = "fluid" if self.fluid else "schweitzer"
        if self.aggregated_nodes:
            solver += f"+hier (-{self.aggregated_nodes:.0f} nodes)"
        table.add_row(
            "None (no tuning)",
            f"{self.baseline_wips:.1f}",
            f"{self.baseline_stddev:.1f}",
            "-",
            solver,
        )
        table.add_row(
            "Parameter duplication",
            f"{self.tuned_wips:.1f}",
            f"{self.tuned_stddev:.1f}",
            f"{self.improvement * 100:.1f}%",
            solver,
        )
        return table

    def agreement_table(self) -> Table:
        """Render the small-topology approximation agreement audit."""
        table = Table(
            f"SCALE agreement audit (N={self.agreement_population}, "
            "noise off)",
            ["Approximation", "WIPS", "Rel. error vs exact"],
        )
        for mode in AGREEMENT_MODES:
            row = self.agreement[mode]
            table.add_row(mode, f"{row.wips:.2f}", f"{row.relative_error:.2e}")
        table.add_row(
            "simulation (DES)",
            f"{self.des_wips:.2f}",
            f"{abs(self.des_over_exact_ratio - 1.0):.2e}",
        )
        return table


def _measure_baseline(
    cfg: ExperimentConfig,
    mix_name: str,
    cluster: ClusterSpec,
    population: int,
    backend: PerformanceBackend | None,
) -> dict:
    """Worker: the untuned wide-cluster row (plus solver diagnostics)."""
    backend = backend or make_backend(cfg)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=population,
    )
    probe = ClusterTuningSession(
        backend, scenario, seed=derive_seed(cfg.seed, "scale-baseline")
    )
    stats = probe.measure_baseline(
        iterations=max(cfg.baseline_iterations, 2)
    ).window_stats(0)
    first = backend.measure(
        scenario,
        cluster.default_configuration(),
        seed=derive_seed(cfg.seed, "scale-probe"),
    )
    return {
        "mean": stats.mean,
        "stddev": stats.stddev,
        "fluid": first.diagnostics.get("solver.fluid", 0.0),
        "aggregated_nodes": first.diagnostics.get(
            "solver.aggregated_nodes", 0.0
        ),
    }


def _run_tuning(
    cfg: ExperimentConfig,
    mix_name: str,
    cluster: ClusterSpec,
    population: int,
    backend: PerformanceBackend | None,
) -> dict:
    """Worker: the duplication-method tuning run on the wide cluster."""
    backend = backend or make_backend(cfg)
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=population,
    )
    scheme = make_scheme(scenario, "duplication")
    session = ClusterTuningSession(
        backend,
        scenario,
        scheme=scheme,
        seed=derive_seed(cfg.seed, "scale", "duplication"),
        speculate=cfg.speculate,
    )
    session.run(cfg.iterations)
    history = session.history
    best_stats = remeasure(
        backend,
        session.scenario,
        history.best_configuration(),
        seed=derive_seed(cfg.seed, "scale-best"),
        iterations=cfg.baseline_iterations,
    )
    return {
        "wips": best_stats.mean,
        "stddev": history.window_stats(cfg.window_start()).stddev,
        "iterations_to_converge": history.iterations_to_converge(),
        "history": history,
    }


def _measure_agreement(
    cfg: ExperimentConfig, mix_name: str, mode: str
) -> float:
    """Worker: one forced approximation mode, noise off, small topology.

    The topology is small enough for the exact per-node solve yet wide
    enough (replicated tiers) for hierarchical aggregation to engage, so
    every mode exercises its intended code path.
    """
    from repro.model.noise import NoiseModel

    cluster = ClusterSpec.wide(4, 4, 2, name="wide-small")
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.cluster_population,
    )
    backend = AnalyticBackend(
        approximation=mode, noise=NoiseModel(0.0, 0.0, 0.0)
    )
    return backend.measure(
        scenario,
        cluster.default_configuration(),
        seed=derive_seed(cfg.seed, "scale-agree", mode),
    ).wips


def _measure_des_check(cfg: ExperimentConfig, mix_name: str) -> dict:
    """Worker: the discrete-event cross-check of the analytic stack.

    The event simulator shares no queueing mathematics with the MVA
    solvers — agreement here validates the whole modelling chain, not
    one approximation against another.  Runs on the agreement topology
    at the full agreement population (affordable since the lean event
    kernel).  With ``cfg.profile`` the simulator's observability
    diagnostics ride along (WIPS is bit-identical either way).
    """
    from repro.des.backend import SimulationBackend

    cluster = ClusterSpec.wide(4, 4, 2, name="wide-small")
    scenario = Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES[mix_name],
        population=cfg.cluster_population,
    )
    backend = SimulationBackend(
        time_scale=DES_TIME_SCALE, profile=cfg.profile
    )
    measurement = backend.measure(
        scenario,
        cluster.default_configuration(),
        seed=derive_seed(cfg.seed, "scale-des"),
    )
    profile = {
        key: value
        for key, value in sorted(measurement.diagnostics.items())
        if key.startswith("profile.")
    } if cfg.profile else None
    return {"wips": measurement.wips, "profile": profile}


def run(
    config: ExperimentConfig | None = None,
    backend: PerformanceBackend | None = None,
    mix_name: str = "shopping",
    cluster: Optional[ClusterSpec] = None,
    population: int = SCALE_POPULATION,
) -> ScaleResult:
    """Run the wide-cluster scale experiment."""
    cfg = config or ExperimentConfig()
    cluster = cluster or ClusterSpec.wide()
    executor = make_executor(cfg, "scale")
    shared = backend if backend is not None else (
        make_backend(cfg) if executor.jobs == 1 or executor.engine == "inline"
        else None
    )

    common = {
        "cfg": cfg,
        "mix_name": mix_name,
        "cluster": cluster,
        "population": population,
        "backend": shared,
    }
    results = executor.run(
        [
            RunSpec(key="baseline", fn=_measure_baseline, kwargs=common),
            RunSpec(key="tune", fn=_run_tuning, kwargs=common),
        ]
        + [
            RunSpec(
                key=("agree", mode),
                fn=_measure_agreement,
                kwargs={"cfg": cfg, "mix_name": mix_name, "mode": mode},
            )
            for mode in AGREEMENT_MODES
        ]
        + [
            RunSpec(
                key="des",
                fn=_measure_des_check,
                kwargs={"cfg": cfg, "mix_name": mix_name},
            )
        ]
    )

    baseline = results["baseline"]
    tuned = results["tune"]
    exact_wips = results[("agree", "exact")]
    agreement = {
        mode: AgreementRow(
            mode=mode,
            wips=results[("agree", mode)],
            relative_error=abs(results[("agree", mode)] - exact_wips)
            / exact_wips,
        )
        for mode in AGREEMENT_MODES
    }

    executor.close()
    return ScaleResult(
        cluster_name=cluster.name,
        num_nodes=cluster.num_nodes,
        population=population,
        baseline_wips=baseline["mean"],
        baseline_stddev=baseline["stddev"],
        tuned_wips=tuned["wips"],
        tuned_stddev=tuned["stddev"],
        improvement=tuned["wips"] / baseline["mean"] - 1.0,
        iterations_to_converge=tuned["iterations_to_converge"],
        fluid=baseline["fluid"],
        aggregated_nodes=baseline["aggregated_nodes"],
        agreement_population=cfg.cluster_population,
        agreement=agreement,
        des_wips=results["des"]["wips"],
        des_over_exact_ratio=results["des"]["wips"] / exact_wips,
        des_population=cfg.cluster_population,
        des_profile=results["des"]["profile"],
        history=tuned["history"],
    )
