"""Figure 5: responsiveness to changing workloads (100-iteration segments)."""

from repro.experiments import fig5
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_fig5_responsiveness(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig5.run(FULL, segment=100), rounds=1, iterations=1
    )
    # The paper: "only a few iterations are needed to adapt".
    for start, mix, adapt in result.segments[1:]:
        assert adapt <= 40
    report(
        "fig5_responsiveness",
        result.to_table(),
        result.chart(),
        result.series_table(stride=10),
    )
