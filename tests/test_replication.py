"""Tests for the replication harness."""

import pytest

from repro.experiments.replication import (
    Replication,
    replicate,
    replicate_fig4_improvements,
    replication_table,
)
from repro.experiments.runner import ExperimentConfig


class TestReplication:
    def test_needs_values(self):
        with pytest.raises(ValueError):
            Replication("x", ())

    def test_stats_and_sign(self):
        rep = Replication("x", (0.1, 0.2, 0.15))
        assert rep.stats.mean == pytest.approx(0.15)
        assert rep.all_positive
        assert not Replication("y", (0.1, -0.01)).all_positive


class TestReplicate:
    def test_runs_metric_per_seed(self):
        seen = []

        def metric(cfg):
            seen.append(cfg.seed)
            return float(cfg.seed)

        rep = replicate("m", metric, ExperimentConfig(iterations=1), [3, 5, 9])
        assert seen == [3, 5, 9]
        assert rep.values == (3.0, 5.0, 9.0)

    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            replicate("m", lambda cfg: 0.0, ExperimentConfig(), [])


class TestFig4Replication:
    def test_browsing_improvement_sign_stable(self):
        """The headline claim must not depend on the seed."""
        cfg = ExperimentConfig(iterations=50, baseline_iterations=6)
        reps = replicate_fig4_improvements(cfg, seeds=[17, 99])
        assert set(reps) == {"browsing", "shopping", "ordering"}
        browsing = reps["browsing"]
        assert browsing.stats.count == 2
        assert browsing.all_positive
        # Ordering's improvement is smaller than browsing's in every run.
        for b, o in zip(browsing.values, reps["ordering"].values):
            assert o < b

    def test_table_renders(self):
        reps = {"demo": Replication("demo", (0.1, 0.12))}
        text = replication_table(reps).render()
        assert "demo" in text and "Sign-stable" in text
