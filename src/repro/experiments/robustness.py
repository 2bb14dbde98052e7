"""Robustness ablations: when does automated tuning pay?

Two sweeps that bound the headline results:

* **Measurement noise** — the simplex consumes single noisy WIPS readings;
  how much measurement noise can it absorb before the found configurations
  stop beating the default?  (Nelder–Mead's noise sensitivity is a classic
  concern; the paper's 1000-second measurement windows exist precisely to
  keep σ small.)
* **Load level** — tuning gains require the system to be *throughput-bound*.
  Sweeping the emulated-browser population shows the gain appearing at the
  saturation knee and growing beyond it — quantifying when an operator
  should bother tuning at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import ExperimentConfig, remeasure
from repro.model.analytic import AnalyticBackend
from repro.model.base import Scenario
from repro.model.noise import NoiseModel
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.rng import derive_seed
from repro.util.tables import Table

__all__ = [
    "NoiseSweepResult",
    "LoadSweepResult",
    "run_noise_sweep",
    "run_load_sweep",
]


def _tuned_gain(
    backend: AnalyticBackend,
    scenario: Scenario,
    iterations: int,
    baseline_iterations: int,
    seed: int,
) -> tuple[float, float]:
    """(baseline mean, re-measured best) for one tuning run."""
    session = ClusterTuningSession(
        backend, scenario, scheme=make_scheme(scenario, "default"), seed=seed
    )
    baseline = session.measure_baseline(
        iterations=baseline_iterations
    ).window_stats(0)
    session.run(iterations)
    best = session.history.best_configuration()
    # Re-measure on a quiet backend: the question is what the *found*
    # configuration is worth, independent of the noise it was found under.
    quiet = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
    best_wips = quiet.measure(scenario, best, seed=seed).wips
    base_wips = quiet.measure(
        scenario, scenario.cluster.default_configuration(), seed=seed
    ).wips
    return base_wips, best_wips


@dataclass(frozen=True)
class NoiseSweepResult:
    """Realized tuning gain per measurement-noise level."""

    mix_name: str
    #: (base σ, baseline WIPS, tuned WIPS, gain).
    rows: tuple[tuple[float, float, float, float], ...]

    def gain(self, sigma: float) -> float:
        """The gain measured at one noise level."""
        for s, _, _, g in self.rows:
            if s == sigma:
                return g
        raise KeyError(sigma)

    def to_table(self) -> Table:
        """Render the result as a paper-style table."""
        table = Table(
            f"Ablation: tuning gain vs measurement noise ({self.mix_name})",
            ["Base noise σ", "Default WIPS", "Tuned WIPS", "Gain"],
        )
        for sigma, base, tuned, gain in self.rows:
            table.add_row(
                f"{sigma * 100:.1f}%", f"{base:.1f}", f"{tuned:.1f}",
                f"{gain * 100:+.1f}%",
            )
        return table


def _noise_point(
    sigma: float, cfg: ExperimentConfig, mix_name: str
) -> tuple[float, float, float, float]:
    """Worker: one noise level's full tuning run."""
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES[mix_name], population=cfg.population
    )
    backend = AnalyticBackend(
        noise=NoiseModel(base_sigma=sigma, extreme_sigma=0.015,
                         pressure_sigma=0.08)
    )
    base, tuned = _tuned_gain(
        backend, scenario, cfg.iterations, cfg.baseline_iterations,
        derive_seed(cfg.seed, "noise-sweep", mix_name, sigma),
    )
    return (sigma, base, tuned, tuned / base - 1.0)


def run_noise_sweep(
    config: ExperimentConfig | None = None,
    mix_name: str = "browsing",
    sigmas: Sequence[float] = (0.005, 0.012, 0.03, 0.08),
) -> NoiseSweepResult:
    """Tune under increasing measurement noise; gains should degrade
    gracefully, not collapse.  Noise levels are independent runs and fan
    over ``cfg.jobs`` workers."""
    cfg = config or ExperimentConfig()
    results = ParallelExecutor(cfg.jobs, engine=cfg.engine).run(
        [
            RunSpec(
                key=("sigma", sigma),
                fn=_noise_point,
                kwargs={"sigma": sigma, "cfg": cfg, "mix_name": mix_name},
            )
            for sigma in sigmas
        ]
    )
    return NoiseSweepResult(
        mix_name=mix_name,
        rows=tuple(results[("sigma", s)] for s in sigmas),
    )


@dataclass(frozen=True)
class LoadSweepResult:
    """Realized tuning gain per offered-load level."""

    mix_name: str
    #: (population, baseline WIPS, tuned WIPS, gain).
    rows: tuple[tuple[int, float, float, float], ...]

    def to_table(self) -> Table:
        """Render the result as a paper-style table."""
        table = Table(
            f"Ablation: tuning gain vs offered load ({self.mix_name})",
            ["EB population", "Default WIPS", "Tuned WIPS", "Gain"],
        )
        for population, base, tuned, gain in self.rows:
            table.add_row(
                population, f"{base:.1f}", f"{tuned:.1f}", f"{gain * 100:+.1f}%"
            )
        return table

    def gains(self) -> list[float]:
        """Gains in population order."""
        return [g for _, _, _, g in self.rows]


def _load_point(
    population: int, cfg: ExperimentConfig, mix_name: str
) -> tuple[int, float, float, float]:
    """Worker: one load level's full tuning run."""
    cluster = ClusterSpec.three_tier(1, 1, 1)
    backend = AnalyticBackend()
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES[mix_name], population=population
    )
    base, tuned = _tuned_gain(
        backend, scenario, cfg.iterations, cfg.baseline_iterations,
        derive_seed(cfg.seed, "load-sweep", mix_name, population),
    )
    return (population, base, tuned, tuned / base - 1.0)


def run_load_sweep(
    config: ExperimentConfig | None = None,
    mix_name: str = "browsing",
    populations: Sequence[int] = (300, 550, 750, 1000),
) -> LoadSweepResult:
    """Tune at several load levels: the gain appears at the saturation knee.

    An unsaturated system is think-time-bound — every configuration
    delivers N/Z, so tuning cannot help; the experiment quantifies where
    that stops being true.  Load levels are independent runs and fan over
    ``cfg.jobs`` workers.
    """
    cfg = config or ExperimentConfig()
    results = ParallelExecutor(cfg.jobs, engine=cfg.engine).run(
        [
            RunSpec(
                key=("population", p),
                fn=_load_point,
                kwargs={"population": p, "cfg": cfg, "mix_name": mix_name},
            )
            for p in populations
        ]
    )
    return LoadSweepResult(
        mix_name=mix_name,
        rows=tuple(results[("population", p)] for p in populations),
    )
