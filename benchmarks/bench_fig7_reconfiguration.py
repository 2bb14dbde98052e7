"""Figure 7: automatic cluster reconfiguration (both duals)."""

from repro.cluster.node import Role
from repro.experiments import fig7
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_fig7a_proxy_to_app(benchmark, report):
    result = benchmark.pedantic(lambda: fig7.run_a(FULL), rounds=1, iterations=1)
    assert result.decision is not None
    assert result.decision.from_role is Role.PROXY
    assert result.decision.to_role is Role.APP
    assert result.improvement > 0.25
    report(
        "fig7a_reconfiguration",
        result.to_table(),
        result.chart(),
        result.series_table(stride=5),
    )


def test_fig7b_app_to_proxy(benchmark, report):
    result = benchmark.pedantic(lambda: fig7.run_b(FULL), rounds=1, iterations=1)
    assert result.decision is not None
    assert result.decision.from_role is Role.APP
    assert result.decision.to_role is Role.PROXY
    assert result.improvement > 0.25
    report(
        "fig7b_reconfiguration",
        result.to_table(),
        result.chart(),
        result.series_table(stride=5),
    )
