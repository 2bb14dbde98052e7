"""The shared execution engine: equivalence matrix and store tests.

The engine axis contract is the same as ``--jobs``: ``--engine`` changes
wall-clock time and cache topology, never numbers.  The matrix test here
is this PR's hard acceptance — one reduced Figure-4 workload serialized
to byte-identical JSON at every (engine, jobs) setting — plus DES-backed
plan equivalence and shared-store concurrency.
"""

import json
import multiprocessing
import threading

import pytest

from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend
from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig, make_backend
from repro.model.base import Scenario
from repro.parallel import (
    ENGINES,
    ParallelExecutor,
    RunSpec,
    SharedEngine,
    SharedStore,
    plan_chunksize,
    resolve_engine,
)
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
    """Never leak a fleet/manager into later test modules."""
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

    def test_fleet_workers_hit_migrated_store(self, fresh_engine):
        # Warm the store on the serial path (local dict)...
        warm = ParallelExecutor(jobs=1, engine="shared")
        warm.run([RunSpec(key="warm", fn=shared_measure, kwargs={"tag": -1})])
        # ...then spin up the fleet: attach migrates local entries, so every
        # cache-cold worker's first lookup is a cross-process store hit.
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
        assert (
            stats.get("measurement_shared_hits", 0)
            + stats.get("solution_shared_hits", 0)
        ) > 0

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


class TestSharedStore:
    def test_attach_migrates_and_is_idempotent(self):
        store = SharedStore()
        store.put(("sol", "a"), 1)
        remote: dict = {}
        store.attach(remote)
        assert remote == {("sol", "a"): 1}
        store.attach(remote)  # same mapping: no-op
        with pytest.raises(RuntimeError, match="already attached"):
            store.attach({})

    def test_counters(self):
        store = SharedStore()
        assert store.get(("sol", "x")) is None
        store.put(("sol", "x"), 42)
        assert store.get(("sol", "x")) == 42
        assert store.peek(("sol", "y")) is None  # peek: counter-free
        stats = store.stats()
        assert stats["hits"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["entries"] == 1.0

    def test_size_guard_clears_wholesale(self):
        store = SharedStore(max_entries=100)
        for i in range(512):  # the guard checks every 512 puts
            store.put(("sol", i), i)
        assert len(store) == 0  # over budget at the check: cleared

    def test_concurrent_writers(self):
        """Threaded put/get storm: deterministic values, consistent counters."""
        store = SharedStore()
        errors: list = []

        def hammer(worker):
            try:
                for i in range(300):
                    key = ("sol", (worker + i) % 50)
                    store.put(key, key[1] * 2)  # deterministic per key
                    value = store.get(key)
                    if value != key[1] * 2:
                        errors.append((key, value))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 50
        assert all(store.peek(("sol", k)) == k * 2 for k in range(50))
        stats = store.stats()
        assert stats["hits"] == 4 * 300  # every get follows its own put
        assert stats["misses"] == 0

    def test_concurrent_writers_attached(self):
        """The same storm through a Manager proxy (the fleet's real path)."""
        manager = multiprocessing.Manager()
        try:
            store = SharedStore()
            store.attach(manager.dict())
            errors: list = []

            def hammer(worker):
                try:
                    for i in range(25):
                        key = ("meas", (worker + i) % 10)
                        store.put(key, key[1])
                        if store.get(key) != key[1]:
                            errors.append(key)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(w,)) for w in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(store) == 10
        finally:
            manager.shutdown()

