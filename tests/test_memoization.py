"""Measurement memoization: content-addressed caching of measurements.

The cache layer may never change numbers — a hit must return exactly the
measurement the backend would have produced — and its fingerprints must
treat content-equal scenarios as equal while separating anything that
could change a measurement.
"""

import pickle

import pytest

from repro.cluster.topology import ClusterSpec
from repro.model.analytic import AnalyticBackend
from repro.model.base import (
    ContentMemo,
    MeasurementCache,
    MemoizedBackend,
    Scenario,
)
from repro.tpcw.interactions import BROWSING_MIX, SHOPPING_MIX
from repro.util.rng import derive_seed


@pytest.fixture(scope="module")
def scenario():
    cluster = ClusterSpec.three_tier(1, 1, 1)
    return Scenario(cluster=cluster, mix=SHOPPING_MIX, population=500)


@pytest.fixture(scope="module")
def default_config(scenario):
    return scenario.cluster.default_configuration()


class TestScenarioFingerprint:
    def test_content_equal_scenarios_share_fingerprints(self, scenario):
        rebuilt = Scenario(
            cluster=ClusterSpec.three_tier(1, 1, 1),
            mix=SHOPPING_MIX,
            population=500,
        )
        assert rebuilt.fingerprint() == scenario.fingerprint()

    def test_cluster_name_is_ignored(self, scenario):
        renamed = Scenario(
            cluster=ClusterSpec.three_tier(1, 1, 1, name="other"),
            mix=SHOPPING_MIX,
            population=500,
        )
        assert renamed.fingerprint() == scenario.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            dict(population=501),
            dict(mix=BROWSING_MIX),
            dict(cluster=ClusterSpec.three_tier(1, 2, 1)),
        ],
    )
    def test_content_changes_change_fingerprint(self, scenario, change):
        kwargs = dict(
            cluster=scenario.cluster,
            mix=scenario.mix,
            population=scenario.population,
        )
        kwargs.update(change)
        assert Scenario(**kwargs).fingerprint() != scenario.fingerprint()


class TestContentMemo:
    def test_peek_leaves_counters_and_lru_order_alone(self):
        memo = ContentMemo(2, "sol")
        memo.put(("a",), 1)
        memo.put(("b",), 2)
        assert memo.peek(("a",)) == 1
        assert memo.peek(("c",)) is None
        assert (memo.hits, memo.misses) == (0, 0)
        memo.put(("c",), 3)  # evicts "a": the peek did not refresh it
        assert [key for key, _ in memo.items()] == [("b",), ("c",)]

    def test_zero_entries_disable_the_memo(self):
        memo = ContentMemo(0, "sol")
        memo.put(("k",), 1)
        assert memo.get(("k",)) is None
        assert memo.peek(("k",)) is None
        assert memo.absorb([(("k",), 1)]) == 0
        assert memo.stats.lookups == 0
        assert len(memo) == 0

    def test_absorb_counts_new_entries(self):
        memo = ContentMemo(8, "sol")
        memo.put(("a",), 1)
        assert memo.absorb([(("a",), 1), (("b",), 2)]) == 1
        assert memo.peek(("b",)) == 2
        assert memo.stats.lookups == 0

    def test_take_gained_returns_each_stretch_of_new_entries(self):
        memo = ContentMemo(1, "sol")
        memo.put(("before",), 0)
        assert memo.take_gained() == []  # recording starts here
        memo.put(("a",), 1)
        memo.put(("a",), 1)  # not new
        memo.absorb([(("b",), 2)])  # evicts "a", which still counts
        assert memo.take_gained() == [(("a",), 1), (("b",), 2)]
        assert memo.take_gained() == []
        memo.absorb([(("b",), 2)])  # already present: nothing gained
        assert memo.take_gained() == []


class TestMeasurementCache:
    def test_hit_returns_stored_measurement(self, scenario, default_config):
        cache = MeasurementCache()
        backend = AnalyticBackend()
        m = backend.measure(scenario, default_config, seed=4)
        cache.store(scenario, default_config, 4, m)
        assert cache.lookup(scenario, default_config, 4) is m
        assert cache.lookup(scenario, default_config, 5) is None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction(self, scenario, default_config):
        cache = MeasurementCache(max_entries=2)
        backend = AnalyticBackend()
        m = backend.measure(scenario, default_config, seed=0)
        for seed in (1, 2, 3):
            cache.store(scenario, default_config, seed, m)
        assert len(cache) == 2
        assert cache.lookup(scenario, default_config, 1) is None  # evicted
        assert cache.lookup(scenario, default_config, 3) is m


class TestMemoizedBackend:
    def test_repeat_measure_served_from_cache(self, scenario, default_config):
        memo = MemoizedBackend(AnalyticBackend())
        first = memo.measure(scenario, default_config, seed=7)
        again = memo.measure(scenario, default_config, seed=7)
        assert again is first
        assert memo.stats.hits == 1

    def test_hit_equals_fresh_measurement(self, scenario, default_config):
        memo = MemoizedBackend(AnalyticBackend())
        fresh = AnalyticBackend().measure(scenario, default_config, seed=7)
        memo.measure(scenario, default_config, seed=7)
        assert memo.measure(scenario, default_config, seed=7) == fresh

    def test_pickle_round_trip(self, scenario, default_config):
        memo = MemoizedBackend(AnalyticBackend())
        first = memo.measure(scenario, default_config, seed=7)
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.measure(scenario, default_config, seed=7) == first
        assert clone.stats.hits == 1
        # A fresh seed misses the measurement memo and hits the copied
        # solution memo.
        clone.measure(scenario, default_config, seed=8)
        assert clone.stats.misses == 2
        assert clone.backend.solution_cache_stats.hits == 1

    def test_batch_forwards_only_misses(self, scenario, default_config):
        memo = MemoizedBackend(AnalyticBackend())
        warm = memo.measure(scenario, default_config, seed=1)
        requests = [(default_config, 1), (default_config, 2), (default_config, 1)]
        results = memo.measure_batch(scenario, requests)
        assert results[0] is warm and results[2] is warm
        assert memo.stats.misses == 2  # the seed-1 warmup and seed 2


class TestAnalyticBatchPath:
    def test_measure_batch_bit_identical_to_serial(self, scenario):
        space = scenario.cluster.full_space()
        import numpy as np

        configs = [
            space.random_configuration(
                np.random.default_rng(derive_seed(3, "cfg", i))
            )
            for i in range(6)
        ]
        requests = [
            (cfg, derive_seed(3, "seed", i)) for i, cfg in enumerate(configs)
        ]
        # Duplicate one configuration under a fresh seed: the batch path
        # dedups solves but must still apply per-seed noise.
        requests.append((configs[0], derive_seed(3, "seed", 99)))
        serial = [
            AnalyticBackend().measure(scenario, cfg, seed=seed)
            for cfg, seed in requests
        ]
        batch = AnalyticBackend().measure_batch(scenario, requests)
        for a, b in zip(serial, batch):
            assert b == a

    def test_solution_cache_collapses_noise_repeats(self, scenario, default_config):
        backend = AnalyticBackend()
        requests = [(default_config, seed) for seed in range(5)]
        results = backend.measure_batch(scenario, requests)
        stats = backend.solution_cache_stats
        assert stats.misses == 1  # one solve serves all five noise draws
        assert len({r.wips for r in results}) == 5  # noise still per-seed
        backend.measure_batch(scenario, [(default_config, 9)])
        assert backend.solution_cache_stats.hits == 1  # reused across calls

    def test_solution_cache_disabled(self, scenario, default_config):
        backend = AnalyticBackend(solution_cache_size=0)
        backend.measure(scenario, default_config, seed=0)
        backend.measure(scenario, default_config, seed=1)
        stats = backend.solution_cache_stats
        assert stats.lookups == 0 and stats.size == 0
