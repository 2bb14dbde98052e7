"""The shared execution engine: equivalence matrix and cache topology.

The engine axis contract is the same as ``--jobs``: ``--engine`` changes
wall-clock time and cache topology, never numbers.  The matrix test here
is the hard acceptance — one reduced Figure-4 workload serialized to
byte-identical JSON at every (engine, jobs) setting — plus DES-backed
plan equivalence, entries crossing between the parent and the fleet, and
the durable ``--store-path`` directory.
"""

import json

import pytest

from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend
from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig, make_backend
from repro.model.analytic import AnalyticBackend
from repro.model.base import MemoizedBackend, Scenario
from repro.parallel.engine import ENGINES, SharedEngine, plan_chunksize, resolve_engine
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.tpcw.interactions import SHOPPING_MIX, STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession
from repro.util.rng import derive_seed


@pytest.fixture()
def fresh_engine():
    """A cold SharedEngine singleton, torn down after the test."""
    SharedEngine.reset()
    yield
    SharedEngine.reset()


@pytest.fixture(scope="module", autouse=True)
def engine_teardown():
    """Never leak a fleet into later test modules."""
    yield
    SharedEngine.reset()


def _probe_scenario():
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=150)
    return cluster, scenario


def shared_measure(tag):
    """Spec: measure one fixed point through the shared-engine backend.

    Every spec measures the *same* (scenario, configuration, seed), so any
    worker after the first must be served by a cache level somewhere.
    ``tag`` only differentiates spec keys.
    """
    del tag
    backend = make_backend(ExperimentConfig(engine="shared"))
    cluster, scenario = _probe_scenario()
    return backend.measure(
        scenario, cluster.default_configuration(), seed=99
    ).wips


def memoized_probe(seed):
    """Spec: two identical measurements on a fresh memoized backend."""
    backend = make_backend(ExperimentConfig(seed=seed))
    cluster, scenario = _probe_scenario()
    cfg = cluster.default_configuration()
    first = backend.measure(scenario, cfg, seed=seed)
    second = backend.measure(scenario, cfg, seed=seed)
    assert first.wips == second.wips
    return first.wips


def des_probe(seed):
    """Spec: a short deterministic DES trajectory (no shared caches)."""
    backend = SimulationBackend(time_scale=0.04)
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=120)
    cfg = cluster.default_configuration()
    return [
        backend.measure(scenario, cfg, seed=derive_seed(seed, i)).wips
        for i in range(2)
    ]


def tuning_trajectory(engine):
    """Spec: a short cluster-tuning run's full performance trajectory."""
    cfg = ExperimentConfig(iterations=6, baseline_iterations=2, engine=engine)
    backend = make_backend(cfg)
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES["shopping"], population=300
    )
    session = ClusterTuningSession(
        backend, scenario, seed=derive_seed(17, "traj")
    )
    session.run(cfg.iterations)
    return [r.performance for r in session.history.records]


class TestEngineAxis:
    def test_resolve_engine(self):
        assert ENGINES == ("inline", "shared")
        # No explicit engine: the fleet only when there are workers.
        assert resolve_engine(None, 1) == "inline"
        assert resolve_engine(None, 2) == "shared"
        # An explicit engine always wins.
        for jobs in (1, 2):
            for engine in ENGINES:
                assert resolve_engine(engine, jobs) == engine
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("threads", 1)
        assert ParallelExecutor(jobs=2).engine == "shared"
        assert ParallelExecutor(jobs=1).engine == "inline"

    def test_executor_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ParallelExecutor(jobs=1, engine="threads")

    def test_plan_chunksize(self):
        assert plan_chunksize(1, 8) == 1
        assert plan_chunksize(7, 2) == 1
        assert plan_chunksize(64, 2) == 8
        assert plan_chunksize(100, 4) == 6


class TestEquivalenceMatrix:
    """Results bit-identical at every (engine, jobs) setting."""

    @pytest.fixture(scope="class")
    def baseline(self):
        result = fig4.run(
            ExperimentConfig(iterations=8, baseline_iterations=4)
        )
        return json.dumps(result.canonical_dict(), sort_keys=True)

    @pytest.mark.parametrize(
        "engine,jobs",
        [
            ("inline", 1),
            ("inline", 4),
            ("shared", 1),
            ("shared", 4),
        ],
    )
    def test_fig4_matrix(self, baseline, engine, jobs, fresh_engine):
        result = fig4.run(
            ExperimentConfig(
                iterations=8, baseline_iterations=4, engine=engine, jobs=jobs
            )
        )
        assert json.dumps(result.canonical_dict(), sort_keys=True) == baseline

    def test_fig4_caller_backend_on_the_fleet(self, baseline, fresh_engine):
        """A caller's backend rides to the fleet in RunSpec kwargs, so it
        must pickle, memos and all, and still give the same numbers."""
        dumps = [
            json.dumps(
                fig4.run(
                    ExperimentConfig(
                        iterations=8,
                        baseline_iterations=4,
                        engine="shared",
                        jobs=jobs,
                    ),
                    backend=MemoizedBackend(AnalyticBackend()),
                ).canonical_dict(),
                sort_keys=True,
            )
            for jobs in (1, 2)
        ]
        assert dumps == [baseline, baseline]

    def test_des_plans_agree_across_engines(self):
        specs = [
            RunSpec(key=("des", s), fn=des_probe, kwargs={"seed": s})
            for s in (3, 5)
        ]
        baseline = ParallelExecutor(jobs=1, engine="inline").run(specs)
        for engine, jobs in [("shared", 1), ("shared", 2)]:
            assert ParallelExecutor(jobs=jobs, engine=engine).run(specs) == (
                baseline
            ), (engine, jobs)
        SharedEngine.reset()

    def test_trajectories_agree_across_engines(self, fresh_engine):
        baseline = tuning_trajectory("inline")
        assert tuning_trajectory("shared") == baseline
        # Warm shared-engine rerun: served from the persistent caches,
        # still the exact same numbers.
        assert tuning_trajectory("shared") == baseline


class TestSharedCacheTopology:
    """Cross-run and cross-worker cache behavior of the shared engine."""

    def test_fleet_workers_start_with_parent_entries(self, fresh_engine):
        # Warm the parent's memos on the serial path...
        warm = ParallelExecutor(jobs=1, engine="shared")
        warm.run([RunSpec(key="warm", fn=shared_measure, kwargs={"tag": -1})])
        # ...then spin up the fleet: every worker starts with a snapshot
        # of those entries, so no worker measures the point again.
        pooled = ParallelExecutor(jobs=2, engine="shared")
        results = pooled.run(
            [
                RunSpec(key=("m", i), fn=shared_measure, kwargs={"tag": i})
                for i in range(2)
            ]
        )
        assert len(set(results.values())) == 1  # hits are bit-identical
        stats = pooled.cache_stats
        assert stats is not None
        assert stats["measurement_misses"] == 0
        assert stats["measurement_hits"] > 0

    def test_cross_run_hits_in_pooled_runs(self, fresh_engine):
        executor = ParallelExecutor(jobs=2, engine="shared")
        plan = [
            RunSpec(key=("m", i), fn=shared_measure, kwargs={"tag": i})
            for i in range(2)
        ]
        first = executor.run(plan)
        second = executor.run(plan)  # same fleet, one run later
        assert first == second
        stats = executor.cache_stats
        assert stats is not None
        assert stats.get("measurement_hits", 0) > 0

    def test_pooled_cache_stats_aggregated(self, fresh_engine):
        # A pooled run reports the cache traffic that happened inside the
        # fleet workers, not the parent's empty counters.
        executor = ParallelExecutor(jobs=2, engine="shared")
        executor.run(
            [
                RunSpec(key=("p", s), fn=memoized_probe, kwargs={"seed": s})
                for s in (1, 2)
            ]
        )
        stats = executor.cache_stats
        assert stats is not None
        assert stats["measurement_hits"] >= 2  # one repeat hit per spec
        assert 0 < stats["measurement_hit_rate"] < 1

    def test_fig4_reports_cache_stats_when_pooled(self):
        result = fig4.run(
            ExperimentConfig(iterations=6, baseline_iterations=2, jobs=2)
        )
        assert result.cache_stats is not None
        assert result.cache_stats["solution_hits"] > 0

    def test_pooled_entries_reach_the_parent(self, fresh_engine):
        # Whatever the fleet computed, a serial rerun of the same plan on
        # the same engine finds in the parent process.
        plan = [
            RunSpec(key=("p", s), fn=memoized_shared_probe, kwargs={"seed": s})
            for s in (1, 2, 3)
        ]
        pooled = ParallelExecutor(jobs=2, engine="shared").run(plan)
        serial = ParallelExecutor(jobs=1, engine="shared")
        assert serial.run(plan) == pooled
        stats = serial.cache_stats
        assert stats is not None
        assert stats["measurement_misses"] == 0
        assert stats["measurement_hits"] == 2 * len(plan)

    def test_store_entries_count_what_the_workers_computed(self, fresh_engine):
        # Each spec measures its own population, so no two specs share a
        # solution or a measurement: every miss is a distinct entry.
        executor = ParallelExecutor(jobs=2, engine="shared")
        executor.run(
            [
                RunSpec(key=n, fn=population_probe, kwargs={"population": n})
                for n in (100, 150, 200, 250)
            ]
        )
        stats = executor.cache_stats
        assert stats is not None
        computed = stats["measurement_misses"] + stats["solution_misses"]
        assert computed == 8
        assert SharedEngine.instance().stats()["store_entries"] == computed


def population_probe(population):
    """Spec: one shared-engine measurement at its own population."""
    backend = make_backend(ExperimentConfig(engine="shared"))
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=population)
    return backend.measure(scenario, cluster.default_configuration(), seed=1).wips


def memoized_shared_probe(seed):
    """Spec: two measurements of one point through the shared engine."""
    backend = make_backend(ExperimentConfig(engine="shared"))
    cluster, scenario = _probe_scenario()
    cfg = cluster.default_configuration()
    return [backend.measure(scenario, cfg, seed=seed).wips for _ in range(2)]


class TestDurableStore:
    """``--store-path``: the engine's entries survive the process."""

    def test_reload_serves_every_measurement(self, tmp_path, fresh_engine):
        config = ExperimentConfig(
            iterations=6, baseline_iterations=2, jobs=2, engine="shared"
        )
        runs = []
        for _ in range(2):
            SharedEngine.reset()
            SharedEngine.configure(store_path=str(tmp_path))
            result = fig4.run(config)
            runs.append((result, SharedEngine.instance().stats()))
        (first, first_stats), (second, second_stats) = runs
        assert json.dumps(second.canonical_dict(), sort_keys=True) == (
            json.dumps(first.canonical_dict(), sort_keys=True)
        )
        assert second.cache_stats["measurement_misses"] == 0
        assert second.cache_stats["measurement_hits"] > 0
        assert first_stats["persist_entries_persisted"] > 0
        assert second_stats["persist_entries_loaded"] == (
            first_stats["persist_entries_persisted"]
        )
        assert list(tmp_path.glob("segment-*.seg"))


def seeded_measure(seed):
    """Spec: measure the probe point at ``seed`` through the shared engine."""
    backend = make_backend(ExperimentConfig(engine="shared"))
    cluster, scenario = _probe_scenario()
    return backend.measure(
        scenario, cluster.default_configuration(), seed=seed
    ).wips


def test_fleet_entries_reach_the_coherence_check(fresh_engine, monkeypatch):
    # RPL153 runs where a worker's shipped entry meets one the parent
    # already holds.  The fleet takes its snapshot when plan 1 starts it;
    # the parent then measures seed 2 itself, so whichever worker runs
    # plan 3 ships home a key the parent holds, however specs land.
    from repro.lint import sanitizer

    checked = []
    check_coherent = sanitizer.check_coherent

    def spy(kind, key, old, new):
        checked.append(kind)
        check_coherent(kind, key, old, new)

    monkeypatch.setattr(sanitizer, "check_coherent", spy)

    def run(seed, jobs):
        plan = [
            RunSpec(key=(seed, i), fn=seeded_measure, kwargs={"seed": seed})
            for i in range(jobs)
        ]
        results = ParallelExecutor(jobs=jobs, engine="shared").run(plan)
        return set(results.values())

    with sanitizer.scope() as captured:
        run(1, jobs=2)
        serial = run(2, jobs=1)
        assert run(2, jobs=2) == serial
    assert "meas absorb" in checked
    assert captured == []
