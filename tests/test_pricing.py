"""Tests for the Dollars/WIPS pricing model and the layout experiment."""

import pytest

from repro.cluster.node import NodeSpec
from repro.cluster.pricing import PricingModel
from repro.cluster.topology import ClusterSpec
from repro.experiments import price_performance
from repro.experiments.runner import ExperimentConfig
from repro.util.units import GB


class TestPricingModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PricingModel(base_node_cost=-1)
        with pytest.raises(ValueError):
            PricingModel(maintenance_factor=0.5)

    def test_node_cost_components(self):
        model = PricingModel(
            base_node_cost=1000, per_core_cost=100, per_gb_memory_cost=200,
            disk_cost=50, network_port_cost=25, maintenance_factor=1.0,
        )
        spec = NodeSpec(cpu_cores=2, memory_bytes=1 * GB)
        assert model.node_cost(spec) == pytest.approx(1000 + 200 + 200 + 50 + 25)

    def test_bigger_machine_costs_more(self):
        model = PricingModel()
        small = NodeSpec()
        big = NodeSpec(cpu_cores=4, memory_bytes=4 * GB)
        assert model.node_cost(big) > model.node_cost(small)

    def test_cluster_cost_sums_nodes(self):
        model = PricingModel()
        c3 = ClusterSpec.three_tier(1, 1, 1)
        c6 = ClusterSpec.three_tier(2, 2, 2)
        assert model.cluster_cost(c6) == pytest.approx(2 * model.cluster_cost(c3))

    def test_dollars_per_wips(self):
        model = PricingModel()
        cluster = ClusterSpec.three_tier(1, 1, 1)
        cost = model.cluster_cost(cluster)
        assert model.dollars_per_wips(cluster, 100.0) == pytest.approx(cost / 100)
        with pytest.raises(ValueError):
            model.dollars_per_wips(cluster, 0.0)

    def test_maintenance_factor_scales(self):
        bare = PricingModel(maintenance_factor=1.0)
        with_maint = PricingModel(maintenance_factor=1.2)
        spec = NodeSpec()
        assert with_maint.node_cost(spec) == pytest.approx(
            1.2 * bare.node_cost(spec)
        )


class TestPricePerformanceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return price_performance.run(
            ExperimentConfig(baseline_iterations=6, cluster_population=2000),
            mix_name="ordering",
            machines=6,
            layouts=[(4, 2), (3, 3), (2, 4)],
        )

    def test_rows_cover_layouts(self, result):
        assert {r.label for r in result.rows} == {
            "4p/2a/2d", "3p/3a/2d", "2p/4a/2d",
        }

    def test_same_budget_different_value(self, result):
        """Equal hardware cost, materially different $/WIPS — the point."""
        costs = {r.cost for r in result.rows}
        assert len(costs) == 1  # same machines everywhere
        assert result.worst().dollars_per_wips > 1.2 * result.best().dollars_per_wips

    def test_ordering_prefers_app_heavy_layouts(self, result):
        best = result.best()
        assert best.apps >= best.proxies

    def test_table_renders(self, result):
        text = result.to_table().render()
        assert "$/WIPS" in text and "3p/3a/2d" in text
