"""Integration tests for the experiment drivers (scaled-down budgets).

These run the actual table/figure pipelines with small iteration counts and
assert the paper's qualitative claims — which method wins, which direction
nodes move, which workload benefits most — rather than absolute numbers.
"""

import pytest

from repro.cluster.node import Role
from repro.experiments import ablations, fig4, fig5, fig7, table1, table3, table4
from repro.experiments.runner import ExperimentConfig

SMALL = ExperimentConfig(
    iterations=60, baseline_iterations=8, population=750,
    cluster_population=1800,
)


class TestTable1:
    def test_splits(self):
        r = table1.run()
        assert r.browse_split["browsing"] == pytest.approx(0.95)
        assert r.browse_split["shopping"] == pytest.approx(0.80)
        assert r.order_split["ordering"] == pytest.approx(0.50)

    def test_table_renders_all_interactions(self):
        text = table1.run().to_table().render()
        for name in ("Home", "Buy Confirm", "Admin Request", "Search Results"):
            assert name in text


@pytest.fixture(scope="module")
def fig4_result():
    return fig4.run(SMALL)


class TestFig4:
    def test_browsing_and_shopping_improve(self, fig4_result):
        assert fig4_result.improvement("browsing") > 0.05
        assert fig4_result.improvement("shopping") > 0.02

    def test_ordering_improvement_is_smallest(self, fig4_result):
        """The paper: ordering's default is 'pretty good' (<= 5% gain)."""
        assert fig4_result.improvement("ordering") < fig4_result.improvement(
            "browsing"
        )

    def test_majority_of_window_beats_default(self, fig4_result):
        assert fig4_result.fraction_above["browsing"] > 0.6

    def test_no_universal_best_configuration(self, fig4_result):
        """At least some cross-application loses to the native tuning —
        the core Figure 4 claim."""
        losses = 0
        for applied in fig4.MIX_ORDER:
            native = fig4_result.cross[(applied, applied)]
            for cfg_mix in fig4.MIX_ORDER:
                if cfg_mix != applied and fig4_result.cross[
                    (cfg_mix, applied)
                ] < native:
                    losses += 1
        assert losses >= 3

    def test_tables_render(self, fig4_result):
        assert "browsing" in fig4_result.to_matrix_table().render()
        assert "%" in fig4_result.to_improvement_table().render()

    def test_table3_renders_all_parameters(self, fig4_result):
        text = table3.render(fig4_result).render()
        for name in ("cache_mem", "maxProcessors", "join_buffer_size",
                     "thread_stack"):
            assert name in text

    def test_table3_proxy_cache_grows_for_browsing(self, fig4_result):
        """Table 3's qualitative movement: browsing tuning raises the
        proxy's memory cache above the 8 MB default."""
        cfg = fig4_result.best_configs["browsing"]
        assert cfg["proxy0.cache_mem"] > 8


class TestFig5:
    def test_adapts_after_switches(self):
        r = fig5.run(SMALL, segment=40)
        assert len(r.wips) == 120
        # Each segment recovers within half its length.
        for start, mix, adapt in r.segments:
            assert adapt <= 20
        assert "Figure 5" in r.to_table().render()
        assert len(r.series_table().rows) > 0

    def test_workload_labels_follow_schedule(self):
        r = fig5.run(SMALL, segment=10,
                     schedule=("browsing", "ordering"))
        assert r.workloads[0] == "browsing"
        assert r.workloads[-1] == "ordering"


@pytest.fixture(scope="module")
def table4_result():
    return table4.run(SMALL)


class TestTable4:
    def test_all_methods_improve(self, table4_result):
        for row in table4_result.rows.values():
            assert row.improvement > 0.0

    def test_duplication_converges_fastest(self, table4_result):
        rows = table4_result.rows
        assert (
            rows["duplication"].iterations_to_converge
            <= rows["default"].iterations_to_converge
        )

    def test_partitioning_stability(self, table4_result):
        """At the full 200-iteration protocol partitioning has the smallest
        second-window σ (see bench/EXPERIMENTS.md); at this reduced budget
        the window is still dominated by exploration, so only assert it is
        not materially *worse* than the default method."""
        rows = table4_result.rows
        assert rows["partitioning"].stddev <= rows["default"].stddev * 1.3

    def test_dimension_bookkeeping(self, table4_result):
        rows = table4_result.rows
        assert rows["default"].tuned_dimensions == 46
        assert rows["duplication"].tuned_dimensions == 23
        assert rows["partitioning"].tuned_dimensions == 23

    def test_render(self, table4_result):
        text = table4_result.to_table().render()
        assert "None (no tuning)" in text
        assert "Parameter duplication" in text


class TestFig7:
    def test_fig7a_moves_proxy_to_app(self):
        r = fig7.run_a(SMALL)
        assert r.decision is not None
        assert r.decision.from_role is Role.PROXY
        assert r.decision.to_role is Role.APP
        assert r.improvement > 0.25

    def test_fig7b_moves_app_to_proxy(self):
        r = fig7.run_b(SMALL)
        assert r.decision is not None
        assert r.decision.from_role is Role.APP
        assert r.decision.to_role is Role.PROXY
        assert r.improvement > 0.25

    def test_series_and_tables(self):
        r = fig7.run_b(SMALL)
        assert len(r.wips) == SMALL.iterations
        assert "improvement" in r.to_table().render()
        assert len(r.series_table().rows) > 0


class TestAblations:
    def test_simplex_beats_or_matches_baselines(self):
        r = ablations.run_strategy_ablation(
            ExperimentConfig(iterations=50, baseline_iterations=6)
        )
        simplex_wips = r.results["simplex"][0]
        assert simplex_wips >= r.baseline
        assert "random" in r.results and "coordinate" in r.results
        assert "Strategy" in r.to_table().render()

    def test_damping_ablation_runs(self):
        r = ablations.run_damping_ablation(
            ExperimentConfig(iterations=40, baseline_iterations=6)
        )
        assert set(r.results) == {"simplex", "simplex-damped"}

    def test_hybrid_tuning_never_worse_than_phase1(self):
        r = ablations.run_hybrid_tuning(
            ExperimentConfig(iterations=40, baseline_iterations=6,
                             cluster_population=1800)
        )
        assert r.hybrid_best >= r.duplication_best
        assert "hybrid" in r.to_table().render()


class TestDrift:
    def test_small_drift_run(self):
        from repro.experiments import drift

        result = drift.run(ExperimentConfig(iterations=45))
        assert len(result.blend) == 45
        # Blend ramps monotonically 0 -> 1.
        assert result.blend[0] == 0.0
        assert result.blend[-1] == 1.0
        assert all(a <= b for a, b in zip(result.blend, result.blend[1:]))
        # The tuner helps while the workload is browsing-like.
        n = len(result.blend)
        assert result.advantage_over_window(5, n // 3) > 0.0
        assert "drift" in result.to_table().render().lower()
        assert "*" in result.chart()


class TestRobustness:
    def test_noise_sweep_small(self):
        from repro.experiments.robustness import run_noise_sweep

        result = run_noise_sweep(
            ExperimentConfig(iterations=40, baseline_iterations=4),
            sigmas=(0.01, 0.05),
        )
        assert len(result.rows) == 2
        assert result.gain(0.01) > 0.0
        assert "noise" in result.to_table().render()

    def test_load_sweep_small(self):
        from repro.experiments.robustness import run_load_sweep

        result = run_load_sweep(
            ExperimentConfig(iterations=40, baseline_iterations=4),
            populations=(300, 900),
        )
        gains = result.gains()
        assert gains[0] < 0.05  # unsaturated: nothing to tune
        assert gains[1] > gains[0]
        assert "load" in result.to_table().render()
