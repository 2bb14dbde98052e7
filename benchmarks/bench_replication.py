"""Replication bench: the Figure 4 headline numbers across seeds.

Re-runs the full Figure 4 pipeline under three independent seeds and
reports the spread of each workload's improvement — the evidence behind
quoting EXPERIMENTS.md's numbers as stable rather than as one lucky draw.
Runs at a reduced (100-iteration) budget per seed to keep the bench under
a minute per replication.
"""

from repro.experiments.replication import (
    replicate_fig4_improvements,
    replication_table,
)
from repro.experiments.runner import ExperimentConfig

CONFIG = ExperimentConfig(iterations=100)
SEEDS = (17, 99, 2024)


def test_fig4_replication(benchmark, report):
    reps = benchmark.pedantic(
        lambda: replicate_fig4_improvements(CONFIG, SEEDS),
        rounds=1, iterations=1,
    )
    # The qualitative claims must hold in every replication:
    assert reps["browsing"].all_positive
    for b, o in zip(reps["browsing"].values, reps["ordering"].values):
        assert o < b  # ordering gains least, every seed
    report("replication_fig4", replication_table(reps))
