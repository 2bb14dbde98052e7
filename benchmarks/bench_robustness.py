"""Robustness ablations: tuning gain vs measurement noise and vs load."""

from repro.experiments.robustness import run_load_sweep, run_noise_sweep
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_noise_sweep(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_noise_sweep(FULL), rounds=1, iterations=1
    )
    # Gains must survive realistic noise; allow graceful degradation only.
    gains = [g for _, _, _, g in result.rows]
    assert min(gains) > 0.10
    assert max(gains) / max(min(gains), 1e-9) < 2.0
    report("robustness_noise", result.to_table())


def test_load_sweep(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_load_sweep(FULL), rounds=1, iterations=1
    )
    gains = result.gains()
    # Unsaturated: nothing to gain; saturated: double-digit gains.
    assert gains[0] < 0.05
    assert gains[-1] > 0.15
    assert gains == sorted(gains) or gains[-1] > gains[0]
    report("robustness_load", result.to_table())
