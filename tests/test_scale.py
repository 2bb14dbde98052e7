"""Tests for the scale axis: approximation knob, wide topologies, CLI."""

import pytest

from repro.cluster.node import Role
from repro.cluster.topology import ClusterSpec
from repro.experiments.runner import ExperimentConfig
from repro.model.analytic import APPROXIMATIONS, AnalyticBackend
from repro.model.base import Scenario
from repro.model.noise import NoiseModel
from repro.tpcw.interactions import STANDARD_MIXES
from repro.util.units import parse_count


def _scenario(cluster, population=2000):
    return Scenario(
        cluster=cluster,
        mix=STANDARD_MIXES["shopping"],
        population=population,
    )


class TestParseCount:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("750", 750),
            ("2k", 2000),
            ("2K", 2000),
            ("1m", 1_000_000),
            ("1.5m", 1_500_000),
            ("2.5k", 2500),
            ("1g", 1_000_000_000),
            ("1_000", 1000),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_count(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1x", "1.5", "k", "1.0001k"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_count(text)


class TestWideTopology:
    def test_wide_defaults(self):
        cluster = ClusterSpec.wide()
        assert cluster.num_nodes == 64 + 128 + 16
        assert cluster.tier_size(Role.APP) == 128

    def test_replica_groups(self):
        cluster = ClusterSpec.wide(4, 6, 2)
        groups = cluster.replica_groups()
        assert sorted(len(v) for v in groups.values()) == [2, 4, 6]

    def test_work_lines_on_wide(self):
        cluster = ClusterSpec.wide(4, 8, 2)
        lines = cluster.work_lines(2)
        assert len(lines) == 2
        for members in lines.values():
            roles = {cluster.role_of(n) for n in members}
            assert roles == set(Role)

    def test_move_nodes_batch(self):
        cluster = ClusterSpec.wide(4, 4, 2)
        apps = cluster.nodes_in(Role.APP)[:2]
        moved = cluster.move_nodes(apps, Role.PROXY)
        assert moved.tier_size(Role.PROXY) == 6
        assert moved.tier_size(Role.APP) == 2
        with pytest.raises(ValueError):
            cluster.move_nodes(cluster.nodes_in(Role.DB), Role.APP)


class TestApproximationKnob:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AnalyticBackend(approximation="magic")
        for mode in APPROXIMATIONS:
            AnalyticBackend(approximation=mode)

    def test_auto_thresholds(self):
        backend = AnalyticBackend()
        small = ClusterSpec.three_tier(2, 2, 2)
        wide = ClusterSpec.wide(8, 8, 2)
        assert backend.resolve_modes(small, 2000) == (False, False)
        assert backend.resolve_modes(small, 50_000) == (True, False)
        assert backend.resolve_modes(wide, 2000) == (False, True)
        assert backend.resolve_modes(wide, 1_000_000) == (True, True)

    def test_forced_modes(self):
        cluster = ClusterSpec.three_tier(1, 1, 1)
        cases = {
            "exact": (False, False),
            "fluid": (True, False),
            "hierarchical": (False, True),
            "fluid+hierarchical": (True, True),
        }
        for mode, expected in cases.items():
            backend = AnalyticBackend(approximation=mode)
            assert backend.resolve_modes(cluster, 100) == expected

    def test_exact_serves_huge_population(self):
        # The exact solve costs a few Newton steps per network at any N,
        # so a million browsers need no fluid fallback; there the two
        # methods differ by O(1/N).
        cluster = ClusterSpec.wide(8, 8, 2)
        scenario = _scenario(cluster, population=1_000_000)
        cfg = cluster.default_configuration()
        kwargs = {"noise": NoiseModel(0.0, 0.0, 0.0)}
        exact = AnalyticBackend(approximation="exact", **kwargs)
        fluid = AnalyticBackend(approximation="fluid", **kwargs)
        m_e = exact.measure(scenario, cfg, seed=0)
        m_f = fluid.measure(scenario, cfg, seed=0)
        assert m_e.diagnostics["solver.fluid"] == 0.0
        assert m_e.wips == pytest.approx(m_f.wips, rel=1e-5)

    def test_auto_matches_exact_below_thresholds(self):
        # Below both thresholds "auto" must reproduce the exact path bit
        # for bit (same solver, same cache keys).
        cluster = ClusterSpec.three_tier(2, 2, 2)
        scenario = _scenario(cluster)
        cfg = cluster.default_configuration()
        auto = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        exact = AnalyticBackend(
            approximation="exact", noise=NoiseModel(0.0, 0.0, 0.0)
        )
        assert (
            auto.measure(scenario, cfg, seed=3).wips
            == exact.measure(scenario, cfg, seed=3).wips
        )

    def test_fluid_agrees_with_exact_at_moderate_n(self):
        cluster = ClusterSpec.three_tier(2, 2, 2)
        scenario = _scenario(cluster, population=2000)
        cfg = cluster.default_configuration()
        kwargs = {"noise": NoiseModel(0.0, 0.0, 0.0)}
        exact = AnalyticBackend(approximation="exact", **kwargs)
        fluid = AnalyticBackend(approximation="fluid", **kwargs)
        m_e = exact.measure(scenario, cfg, seed=0)
        m_f = fluid.measure(scenario, cfg, seed=0)
        assert m_f.wips == pytest.approx(m_e.wips, rel=5e-2)
        assert m_f.diagnostics["solver.fluid"] == 1.0
        assert m_e.diagnostics["solver.fluid"] == 0.0

    def test_mode_tag_separates_cached_solutions(self):
        # One backend, two forced modes over the same configuration: the
        # solution cache must not serve one mode's result to the other.
        cluster = ClusterSpec.three_tier(2, 2, 2)
        scenario = _scenario(cluster, population=2000)
        cfg = cluster.default_configuration()
        kwargs = {"noise": NoiseModel(0.0, 0.0, 0.0)}
        fluid_first = AnalyticBackend(approximation="fluid", **kwargs)
        w_fluid = fluid_first.measure(scenario, cfg, seed=0).wips
        exact = AnalyticBackend(approximation="exact", **kwargs)
        w_exact = exact.measure(scenario, cfg, seed=0).wips
        # Same numbers whether or not another mode warmed a cache first.
        mixed = AnalyticBackend(approximation="fluid", **kwargs)
        assert mixed.measure(scenario, cfg, seed=0).wips == w_fluid
        assert w_fluid != w_exact

    def test_wide_cluster_huge_population_is_fast(self):
        # The headline: a 100+-node cluster at N=10^6 solves through the
        # approximation stack (no per-node, per-customer work).
        cluster = ClusterSpec.wide(64, 48, 8)
        scenario = _scenario(cluster, population=1_000_000)
        backend = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        m = backend.measure(
            scenario, cluster.default_configuration(), seed=0
        )
        assert m.wips > 0
        assert m.diagnostics["solver.fluid"] == 1.0
        assert m.diagnostics["solver.aggregated_nodes"] == cluster.num_nodes - 3
        # Every node still reports utilization (expansion ran).
        assert set(m.utilization) == {
            p.node_id for p in cluster.placements
        }


class TestScaleExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import scale

        cfg = ExperimentConfig(
            iterations=10, baseline_iterations=4, jobs=1, engine="inline"
        )
        return scale.run(cfg, cluster=ClusterSpec.wide(8, 8, 4))

    def test_solver_modes_engaged(self, result):
        assert result.fluid == 1.0
        assert result.aggregated_nodes == 20 - 3

    def test_agreement_bands(self, result):
        assert result.agreement["exact"].relative_error == 0.0
        assert result.agreement["hierarchical"].relative_error < 1e-9
        assert result.agreement["fluid"].relative_error < 5e-2
        assert result.agreement["fluid+hierarchical"].relative_error < 5e-2

    def test_tables_render(self, result):
        text = str(result.to_table())
        assert "SCALE" in text and "fluid" in text
        assert "Rel. error" in str(result.agreement_table())

    def test_tuning_not_worse_than_baseline(self, result):
        assert result.tuned_wips >= result.baseline_wips * 0.95

    def test_des_validation_arm(self, result):
        assert result.des_population == 2000
        assert 0.9 <= result.des_over_exact_ratio <= 1.1
        assert "simulation (DES)" in str(result.agreement_table())
