"""Parallel replications, profile diagnostics and outage handling."""

import pytest

from repro.cluster.node import Role
from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend, _SimCluster
from repro.faults.backend import ClusterOutageError, FaultyBackend
from repro.faults.plan import FaultPlan
from repro.model.base import MeasurementCache, MemoizedBackend, Scenario
from repro.sim.core import Environment
from repro.tpcw.interactions import SHOPPING_MIX
from repro.util.rng import spawn_rng

from tests.des_golden_cases import measurement_to_jsonable

TIME_SCALE = 0.02


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        cluster=ClusterSpec.three_tier(1, 1, 1),
        mix=SHOPPING_MIX,
        population=80,
    )


@pytest.fixture(scope="module")
def config(scenario):
    return scenario.cluster.default_configuration()


class TestReplications:
    def test_default_is_bit_identical_to_single_iteration(
        self, scenario, config
    ):
        plain = SimulationBackend(time_scale=TIME_SCALE)
        explicit = SimulationBackend(time_scale=TIME_SCALE, replications=1)
        assert measurement_to_jsonable(
            plain.measure(scenario, config, seed=7)
        ) == measurement_to_jsonable(explicit.measure(scenario, config, seed=7))

    def test_serial_and_parallel_merges_identical(self, scenario, config):
        serial = SimulationBackend(
            time_scale=TIME_SCALE, replications=3, replication_jobs=1
        )
        parallel = SimulationBackend(
            time_scale=TIME_SCALE, replications=3, replication_jobs=2
        )
        m_serial = serial.measure(scenario, config, seed=7)
        m_parallel = parallel.measure(scenario, config, seed=7)
        assert measurement_to_jsonable(m_serial) == measurement_to_jsonable(
            m_parallel
        )

    def test_merge_diagnostics(self, scenario, config):
        backend = SimulationBackend(
            time_scale=TIME_SCALE, replications=3, replication_jobs=1
        )
        m = backend.measure(scenario, config, seed=7)
        d = m.diagnostics
        assert d["replication.count"] == 3.0
        assert d["replication.wips_ci95"] >= 0.0
        reps = [d[f"replication.{i}.wips"] for i in range(3)]
        assert m.wips == pytest.approx(sum(reps) / 3.0)
        # Replication 0 is the plain seed; the others derive from it.
        plain = SimulationBackend(time_scale=TIME_SCALE)
        assert reps[0] == plain.measure(scenario, config, seed=7).wips
        assert len(set(reps)) == 3

    @pytest.mark.parametrize(
        "kwargs", [{"replications": 0}, {"replication_jobs": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationBackend(time_scale=TIME_SCALE, **kwargs)


class TestCacheToken:
    def test_default_token_keeps_legacy_keys(self, scenario, config):
        backend = SimulationBackend(time_scale=TIME_SCALE)
        assert backend.measurement_cache_token() == ()
        cache = MeasurementCache()
        assert cache.key(scenario, config, 7) == cache.key(
            scenario, config, 7, token=()
        )
        assert len(cache.key(scenario, config, 7)) == 3

    def test_replicated_token_separates_keys(self, scenario, config):
        backend = SimulationBackend(time_scale=TIME_SCALE, replications=4)
        token = backend.measurement_cache_token()
        assert token == ("replications", 4)
        cache = MeasurementCache()
        base = cache.key(scenario, config, 7)
        keyed = cache.key(scenario, config, 7, token=token)
        assert keyed != base
        assert keyed[:3] == base

    def test_wrappers_delegate_token(self, scenario):
        des = SimulationBackend(time_scale=TIME_SCALE, replications=2)
        assert MemoizedBackend(des).measurement_cache_token() == (
            "replications", 2,
        )
        faulty = FaultyBackend(des, FaultPlan(events=()))
        assert faulty.measurement_cache_token() == ("replications", 2)


class TestProfile:
    def test_profile_diagnostics_ride_along(self, scenario, config):
        plain = SimulationBackend(time_scale=TIME_SCALE)
        profiled = SimulationBackend(time_scale=TIME_SCALE, profile=True)
        m_plain = plain.measure(scenario, config, seed=3)
        m_prof = profiled.measure(scenario, config, seed=3)
        # Profiling is observability only: the measurement is unchanged.
        assert m_prof.wips == m_plain.wips
        d = m_prof.diagnostics
        assert d["profile.entries_scheduled"] > 0
        assert d["profile.entries_dispatched"] > 0
        assert d["profile.fast_resumes"] > 0
        assert d["profile.events_per_second"] > 0
        assert d["profile.measure_seconds"] > 0
        assert not any(
            k.startswith("profile.") for k in m_plain.diagnostics
        )


class TestOutages:
    def test_fault_plan_emptying_a_tier_raises_outage(self, scenario, config):
        backend = FaultyBackend(
            SimulationBackend(time_scale=TIME_SCALE),
            FaultPlan.node_crash("db0", at=0),
        )
        with pytest.raises(ClusterOutageError):
            backend.measure(scenario, config, seed=1)

    def test_lopsided_work_lines_raise_outage_at_build(self):
        cluster = ClusterSpec.three_tier(2, 2, 1)
        scenario = Scenario(
            cluster=cluster,
            mix=SHOPPING_MIX,
            population=60,
            work_lines={
                "a": ("proxy0", "app0", "db0"),
                "b": ("proxy1", "app1"),  # no DB node: cannot serve
            },
        )
        backend = SimulationBackend(time_scale=TIME_SCALE)
        with pytest.raises(ClusterOutageError):
            backend.measure(
                scenario, cluster.default_configuration(), seed=1
            )

    def test_pick_on_emptied_tier_raises_outage_not_valueerror(self):
        # Defensive path: a tier emptied after construction must surface
        # as an outage, not as numpy's bare ValueError from integers(0).
        backend = SimulationBackend(time_scale=TIME_SCALE)
        cluster = ClusterSpec.three_tier(1, 1, 1)
        scenario = Scenario(
            cluster=cluster, mix=SHOPPING_MIX, population=10
        )
        sim = _SimCluster(
            Environment(),
            cluster,
            cluster.default_configuration(),
            backend._context(scenario),
            backend.memory,
        )
        sim.lines["all"][Role.DB] = []
        with pytest.raises(ClusterOutageError):
            sim.pick("all", Role.DB, spawn_rng(0))
