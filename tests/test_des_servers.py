"""Unit tests for the simulated per-tier server processes."""

import numpy as np
import pytest

from repro.cluster.context import WorkloadContext
from repro.cluster.params import APP_PARAMS, DB_PARAMS, PROXY_PARAMS
from repro.des.servers import AppServerSim, DbServerSim, NodeSim, ProxyServerSim
from repro.cluster.node import DEFAULT_NODE
from repro.sim.core import Environment
from repro.tpcw.catalog import Catalog
from repro.tpcw.interactions import Interaction, ORDERING_MIX, SHOPPING_MIX
from repro.tpcw.profiles import PROFILES


@pytest.fixture(scope="module")
def ctx():
    return WorkloadContext.for_mix(SHOPPING_MIX, Catalog(scale=1000))


def _defaults(params):
    return {p.name: p.default for p in params}


def _cpu_time(node, rng, mean, holds):
    """Simulated time ``holds`` back-to-back CPU holds take on ``node``."""
    env = node.env

    def proc():
        for _ in range(holds):
            yield node.cpu.hold(rng, mean, node.memory_penalty)

    env.process(proc())
    env.run()
    return env.now


class TestNodeSim:
    def test_memory_penalty_scales_service(self, ctx):
        fast = NodeSim(Environment(), "a", DEFAULT_NODE, memory_penalty=1.0)
        slow = NodeSim(Environment(), "b", DEFAULT_NODE, memory_penalty=3.0)
        t_fast = _cpu_time(fast, np.random.default_rng(1), 0.01, 200)
        t_slow = _cpu_time(slow, np.random.default_rng(1), 0.01, 200)
        assert t_slow == pytest.approx(3 * t_fast)
        assert t_fast == pytest.approx(200 * 0.01, rel=0.2)

    def test_zero_mean_is_free(self):
        node = NodeSim(Environment(), "a", DEFAULT_NODE)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert _cpu_time(node, rng, 0.0, 3) == 0.0
        assert rng.bit_generator.state == state  # nothing drawn

    def test_cpu_generator_occupies_resource(self, ctx):
        node = NodeSim(Environment(), "a", DEFAULT_NODE)
        assert _cpu_time(node, np.random.default_rng(2), 0.05, 1) > 0.0
        assert node.cpu.granted == 1
        assert node.cpu.in_service == 0  # released

    def test_reset_stats_clears_nic(self):
        env = Environment()
        node = NodeSim(env, "a", DEFAULT_NODE)
        node.account_nic(1000.0)
        node.reset_stats()
        assert node.nic_bytes == 0.0


class TestProxyServerSim:
    def test_hit_fractions_match_model(self, ctx):
        env = Environment()
        proxy = ProxyServerSim(env, "p", DEFAULT_NODE, _defaults(PROXY_PARAMS), ctx)
        rng = np.random.default_rng(3)
        outcomes = [proxy.classify(rng) for _ in range(20_000)]
        mem_share = outcomes.count("mem") / len(outcomes)
        assert mem_share == pytest.approx(proxy.mem_hit, abs=0.02)
        miss_share = outcomes.count("miss") / len(outcomes)
        assert miss_share == pytest.approx(
            1 - proxy.mem_hit - proxy.disk_hit, abs=0.02
        )


class TestAppServerSim:
    def test_spawn_cost_zero_when_idle(self, ctx):
        env = Environment()
        app = AppServerSim(env, "a", DEFAULT_NODE, _defaults(APP_PARAMS), ctx)
        # No busy threads -> below the warm pool -> no spawn cost.
        assert app._spawn_cost(np.random.default_rng(0)) == 0.0

    def test_pools_sized_from_config(self, ctx):
        env = Environment()
        cfg = _defaults(APP_PARAMS)
        cfg.update(maxProcessors=7, acceptCount=3, AJPmaxProcessors=9,
                   AJPacceptCount=4)
        app = AppServerSim(env, "a", DEFAULT_NODE, cfg, ctx)
        assert app.http_pool.capacity == 7
        assert app.ajp_pool.capacity == 9

    def test_serve_page_runs_db_callback(self, ctx):
        env = Environment()
        app = AppServerSim(env, "a", DEFAULT_NODE, _defaults(APP_PARAMS), ctx)
        rng = np.random.default_rng(5)
        called = []

        def fake_db():
            called.append(True)
            yield env.timeout(0.01)

        def proc():
            yield from app.serve_page(
                rng, PROFILES[Interaction.BUY_CONFIRM], fake_db
            )

        env.process(proc())
        env.run()
        assert called == [True]
        assert app.http_pool.in_service == 0
        assert app.ajp_pool.in_service == 0


class TestDbServerSim:
    @pytest.fixture()
    def db(self, ctx):
        env = Environment()
        return env, DbServerSim(env, "d", DEFAULT_NODE, _defaults(DB_PARAMS), ctx)

    def test_count_integerizes_fraction(self, ctx):
        rng = np.random.default_rng(6)
        draws = [DbServerSim._count(rng.random(), 1.3) for _ in range(5000)]
        assert set(draws) <= {1, 2}
        assert np.mean(draws) == pytest.approx(1.3, abs=0.03)

    def test_run_queries_completes_and_releases(self, db):
        env, sim = db
        rng = np.random.default_rng(7)

        def proc():
            yield from sim.run_queries(rng, PROFILES[Interaction.BUY_CONFIRM])

        env.process(proc())
        env.run()
        assert sim.conn_pool.in_service == 0
        assert sim.cpu.granted > 0
        assert sim.nic_bytes > 0

    def test_derived_factors(self, ctx):
        env = Environment()
        cfg = _defaults(DB_PARAMS)
        cfg.update(table_cache=1024, binlog_cache_size=1048576,
                   join_buffer_size=131072)
        sim = DbServerSim(env, "d", DEFAULT_NODE, cfg, ctx)
        assert sim.table_miss < 0.05
        assert sim.binlog_spill < 0.001
        assert sim.join_factor > 1.0  # tiny join buffer pays re-scans

    def test_write_heavy_page_costs_more_disk(self, ctx):
        def disk_time(profile, seed):
            env = Environment()
            sim = DbServerSim(env, "d", DEFAULT_NODE, _defaults(DB_PARAMS),
                              WorkloadContext.for_mix(ORDERING_MIX, ctx.catalog))
            rng = np.random.default_rng(seed)

            def proc():
                for _ in range(60):
                    yield from sim.run_queries(rng, profile)

            env.process(proc())
            env.run()
            return sim.disk.busy_stats.mean(env.now) * env.now

        write_heavy = disk_time(PROFILES[Interaction.BUY_CONFIRM], 8)
        read_only = disk_time(PROFILES[Interaction.ORDER_INQUIRY], 8)
        assert write_heavy > read_only
