"""Gradual workload drift (extension of Figure 5).

The mix ramps browsing→ordering over the middle third of a 200-iteration
run.  The adaptive tuner must dominate the static default configuration in
every phase — the paper's "no universal configuration" argument restated
under drifting (rather than switching) traffic.
"""

from repro.experiments import drift
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_workload_drift(benchmark, report):
    result = benchmark.pedantic(
        lambda: drift.run(FULL), rounds=1, iterations=1
    )
    n = len(result.blend)
    assert result.advantage_over_window(0, n // 3) > 0.05  # browsing phase
    assert result.advantage_over_window(2 * n // 3) > -0.05  # ordering tail
    assert result.mean_advantage > 0.02
    report("drift", result.to_table(), result.chart())
