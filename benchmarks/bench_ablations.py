"""Ablation benches: search strategies, extreme-value damping, hybrid tuning."""

from repro.experiments import ablations
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_search_strategy_ablation(benchmark, report):
    result = benchmark.pedantic(
        lambda: ablations.run_strategy_ablation(FULL), rounds=1, iterations=1
    )
    assert result.results["simplex"][0] > result.baseline
    report("ablation_strategies", result.to_table())


def test_extreme_value_damping_ablation(benchmark, report):
    result = benchmark.pedantic(
        lambda: ablations.run_damping_ablation(FULL), rounds=1, iterations=1
    )
    assert set(result.results) == {"simplex", "simplex-damped"}
    report("ablation_damping", result.to_table())


def test_hybrid_cluster_tuning(benchmark, report):
    result = benchmark.pedantic(
        lambda: ablations.run_hybrid_tuning(FULL), rounds=1, iterations=1
    )
    assert result.hybrid_best >= result.duplication_best
    report("ablation_hybrid", result.to_table())
