"""Speculative lookahead batching: bit-identity and waste accounting.

The contract under test (see :mod:`repro.harmony.speculate`) is that
speculation changes *when* deterministic solutions are computed and
nothing else: every trajectory — configurations and performances — must
compare exactly ``==`` against the serial session at every strategy,
scheme and backend.  No tolerances anywhere in this file.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend
from repro.harmony.speculate import SpeculativeEvaluator
from repro.model.analytic import APPROXIMATIONS, AnalyticBackend
from repro.model.base import MemoizedBackend, Scenario
from repro.tpcw.interactions import SHOPPING_MIX
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.rng import derive_seed

STRATEGIES = ("simplex", "simplex-damped", "coordinate", "random")
METHODS = ("default", "duplication", "partitioning")


def _scenario(population: int = 600) -> Scenario:
    # Two nodes per tier so the partitioning scheme can form work lines.
    return Scenario(
        cluster=ClusterSpec.three_tier(2, 2, 2),
        mix=SHOPPING_MIX,
        population=population,
    )


def _trajectory(session: ClusterTuningSession, iterations: int):
    session.run(iterations)
    return [(r.configuration, r.performance) for r in session.history.records]


def _run_pair(
    scenario: Scenario,
    method: str,
    strategy: str,
    iterations: int,
    make_base_backend,
):
    """Serial and speculative trajectories for one (method, strategy)."""
    results = {}
    for speculate in (False, True):
        session = ClusterTuningSession(
            MemoizedBackend(make_base_backend()),
            scenario,
            scheme=make_scheme(scenario, method, work_lines=2),
            strategy=strategy,
            seed=derive_seed(17, "spec-test", method, strategy),
            speculate=speculate,
        )
        results[speculate] = (_trajectory(session, iterations), session)
    return results


class TestBitIdentity:
    """Exact-equality trajectories, serial vs speculative."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_analytic_all_strategies_and_schemes(self, method, strategy):
        results = _run_pair(
            _scenario(), method, strategy, 18, AnalyticBackend
        )
        assert results[True][0] == results[False][0]
        serial, spec = results[False][1], results[True][1]
        assert spec.best_configuration() == serial.best_configuration()
        assert spec.speculation_stats is not None
        assert serial.speculation_stats is None

    @pytest.mark.parametrize("strategy", ("simplex", "random"))
    def test_des_backend(self, strategy):
        """Speculation must not perturb the DES backend's RNG streams."""
        scenario = Scenario(
            cluster=ClusterSpec.three_tier(2, 2, 2),
            mix=SHOPPING_MIX,
            population=40,
        )
        results = _run_pair(
            scenario, "default", strategy, 6,
            lambda: SimulationBackend(time_scale=0.02),
        )
        assert results[True][0] == results[False][0]


class TestPrefetchKeys:
    """Prefetched solutions must sit under the keys measurements look up."""

    @pytest.mark.parametrize("approximation", APPROXIMATIONS)
    def test_prefetch_is_hit_by_measure_batch(self, approximation):
        scenario = Scenario(
            cluster=ClusterSpec.three_tier(1, 1, 1),
            mix=SHOPPING_MIX,
            population=750,
        )
        space = scenario.cluster.full_space()
        configs = [
            space.random_configuration(
                np.random.default_rng(derive_seed(23, "prefetch", i))
            )
            for i in range(4)
        ]
        backend = AnalyticBackend(approximation=approximation)
        assert backend.prefetch_configs(scenario, configs) == 4
        backend.measure_batch(scenario, [(cfg, 0) for cfg in configs])
        stats = backend.solution_cache_stats
        assert (stats.hits, stats.misses) == (4, 0)


class TestWasteAccounting:
    """Counter invariants: waste bounded by the frontier, per step."""

    def test_waste_bounded_by_frontier(self, monkeypatch):
        per_step = []
        original = SpeculativeEvaluator.prefetch

        def spy(self, scenario, fragments, full):
            before = self.stats.planned
            original(self, scenario, fragments, full)
            frontier = sum(len(p) for p in self._planned.values())
            per_step.append((self.stats.planned - before, frontier))

        monkeypatch.setattr(SpeculativeEvaluator, "prefetch", spy)

        scenario = _scenario()
        session = ClusterTuningSession(
            MemoizedBackend(AnalyticBackend()),
            scenario,
            scheme=make_scheme(scenario, "partitioning", work_lines=2),
            strategy="simplex",
            seed=derive_seed(17, "spec-test", "waste"),
            speculate=True,
        )
        session.run(20)
        stats = session.speculation_stats

        assert per_step, "speculator was never invoked"
        for newly_planned, frontier in per_step:
            # Each step plans at most its frontier (dedupe only shrinks it).
            assert 0 <= newly_planned <= frontier

        assert stats.planned == sum(d for d, _ in per_step)
        assert stats.hits <= stats.planned
        assert stats.waste == max(stats.planned - stats.hits, 0)
        assert 0.0 <= stats.waste_ratio <= 1.0
        assert 0.0 <= stats.hit_rate <= 1.0
        # Every step after the first scores each group's committed ask
        # against the previous plan, as a hit or a miss — never silently.
        groups = len(session.server.sessions)
        assert stats.hits + stats.misses == (20 - 1) * groups

    def test_stats_reset_on_mix_change(self):
        scenario = _scenario()
        session = ClusterTuningSession(
            MemoizedBackend(AnalyticBackend()),
            scenario,
            scheme=make_scheme(scenario, "default"),
            strategy="simplex",
            seed=derive_seed(17, "spec-test", "reset"),
            speculate=True,
        )
        session.run(5)
        assert session.speculator._planned is not None
        session.set_mix(SHOPPING_MIX)
        # The stale plan is dropped: fragments committed for the new mix
        # must not be scored against predictions made for the old one.
        assert session.speculator._planned is None
