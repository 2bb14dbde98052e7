"""Figure 4 + Table 3 + the §III.A narrative, at the paper's full protocol.

Runs 200 tuning iterations per workload mix on the single-node-per-tier
cluster, re-measures each best configuration under every mix (the Figure 4
cross-application matrix) and renders the Table 3 parameter listing.
"""

from repro.experiments import fig4, table3
from repro.experiments.runner import ExperimentConfig
from repro.util.tables import Table

FULL = ExperimentConfig()


def _sec3a_table(result) -> Table:
    t = Table(
        "§III.A: tuning-window statistics (second 100 iterations)",
        ["Workload", "Baseline WIPS", "Window mean", "Window impr.",
         "Iterations beating default"],
    )
    for mix in fig4.MIX_ORDER:
        t.add_row(
            mix,
            f"{result.baselines[mix]:.1f}",
            f"{result.histories[mix].window_stats(100).mean:.1f}",
            f"{result.window_improvement[mix] * 100:.1f}%",
            f"{result.fraction_above[mix] * 100:.0f}%",
        )
    return t


def test_fig4_cross_workload_and_table3(benchmark, report):
    result = benchmark.pedantic(lambda: fig4.run(FULL), rounds=1, iterations=1)

    # Paper shape: every workload improves; ordering improves least.
    for mix in fig4.MIX_ORDER:
        assert result.improvement(mix) > -0.02
    assert result.improvement("ordering") < result.improvement("browsing")

    report(
        "fig4_table3",
        result.to_matrix_table(),
        result.to_improvement_table(),
        _sec3a_table(result),
        table3.render(result),
    )
