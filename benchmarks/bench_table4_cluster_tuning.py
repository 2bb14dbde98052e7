"""Table 4: the three cluster-tuning methods vs no tuning.

Runs the full 200-iteration protocol per method on the 2-proxy / 2-app /
2-database cluster (the smallest layout admitting two work lines).
"""

from repro.experiments import table4
from repro.experiments.runner import ExperimentConfig

FULL = ExperimentConfig()


def test_table4_cluster_tuning(benchmark, report):
    result = benchmark.pedantic(
        lambda: table4.run(FULL), rounds=1, iterations=1
    )
    rows = result.rows
    # Paper shape (robust form): every method clearly beats no tuning and
    # reaches a comparable tuned level; the scaled methods search half the
    # dimensions per server.  (The exact iteration/stddev orderings are
    # noise-sensitive; EXPERIMENTS.md reports the measured values against
    # the paper's.)
    for row in rows.values():
        assert row.improvement > 0.05
    tuned = [row.wips for row in rows.values()]
    assert max(tuned) / min(tuned) < 1.10  # "tuning results are very close"
    assert rows["duplication"].tuned_dimensions < rows["default"].tuned_dimensions
    assert rows["partitioning"].tuned_dimensions < rows["default"].tuned_dimensions
    report("table4_cluster_tuning", result.to_table())
