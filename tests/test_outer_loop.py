"""The analytic backend's outer fixed point: a converged function of its input.

The outer loop steps the pool holdings and node concurrencies toward the
targets each MVA solve implies.  A fixed step of 0.5 locks some
configurations into 2-cycles (or longer ones), and the solve then returns
whichever cycle iterate the round cap lands on.  The step now halves
whenever the residual reverses direction; these tests check that the
answer converges, does not depend on the cap, and is unchanged wherever
the residual never reverses.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.model import analytic
from repro.model.analytic import AnalyticBackend
from repro.model.base import Scenario
from repro.model.noise import NoiseModel
from repro.tpcw.interactions import STANDARD_MIXES
from repro.util.rng import derive_seed

QUIET = NoiseModel(0.0, 0.0, 0.0)
SMALL = ClusterSpec.three_tier(1, 1, 1)


def _measure(cluster, mix, population, cfg=None, approximation="auto"):
    backend = AnalyticBackend(approximation=approximation, noise=QUIET)
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES[mix], population=population
    )
    return backend.measure(
        scenario, cfg or cluster.default_configuration(), seed=0
    )


def _rounds(m):
    return int(m.diagnostics["solver.outer_rounds"])


class TestCapParity:
    """A converged solve reads the same at every cap at or above its rounds."""

    @pytest.mark.parametrize(
        "population,wips", [(750, 94.88), (1000, 95.24)]
    )
    def test_ordering_default_converges(self, monkeypatch, population, wips):
        # A fixed step alternated between two iterates here: caps 40 and
        # 41 read 93.44 / 96.05 WIPS at N = 750 and 100.30 / 97.31 at 1000.
        m = _measure(SMALL, "ordering", population)
        assert m.diagnostics["solver.converged"] == 1.0
        assert _rounds(m) < analytic.MAX_OUTER
        assert m.wips == pytest.approx(wips, abs=0.01)
        for cap in (_rounds(m), _rounds(m) + 1):
            monkeypatch.setattr(analytic, "MAX_OUTER", cap)
            again = _measure(SMALL, "ordering", population)
            assert (again.wips, again.error_rate) == (m.wips, m.error_rate)

    def test_cap_below_rounds_reports_unconverged(self, monkeypatch):
        m = _measure(SMALL, "ordering", 750)
        monkeypatch.setattr(analytic, "MAX_OUTER", _rounds(m) - 1)
        capped = _measure(SMALL, "ordering", 750)
        assert capped.diagnostics["solver.converged"] == 0.0
        assert _rounds(capped) == _rounds(m) - 1


class TestOverload:
    """At N = 10⁶ the bottleneck flips between the DB disk and the app
    pools from one round to the next; the bracketed step settles it."""

    @pytest.fixture(scope="class")
    def solves(self):
        cluster = ClusterSpec.wide(8, 8, 2)
        return {
            mode: _measure(cluster, "shopping", 1_000_000, approximation=mode)
            for mode in ("exact", "fluid", "hierarchical")
        }

    @pytest.mark.parametrize("mode", ["exact", "fluid", "hierarchical"])
    def test_converges_independent_of_cap(self, monkeypatch, solves, mode):
        m = solves[mode]
        assert m.diagnostics["solver.converged"] == 1.0
        cluster = ClusterSpec.wide(8, 8, 2)
        for cap in (_rounds(m), _rounds(m) + 1):
            monkeypatch.setattr(analytic, "MAX_OUTER", cap)
            again = _measure(cluster, "shopping", 1_000_000, approximation=mode)
            assert again.wips == m.wips

    def test_modes_agree(self, solves):
        exact = solves["exact"].wips
        assert solves["hierarchical"].wips == pytest.approx(exact, rel=1e-9)
        assert solves["fluid"].wips == pytest.approx(exact, rel=1e-5)
        # Replica-weighted residuals make the aggregated solve take the
        # per-node solve's steps.
        assert _rounds(solves["hierarchical"]) == _rounds(solves["exact"])


class TestSweep:
    def test_random_configurations_converge(self):
        # 12 of these 180 solves ended at the cap under a fixed step.
        backend = AnalyticBackend(noise=QUIET)
        space = SMALL.full_space()
        configs = [
            space.random_configuration(
                np.random.default_rng(derive_seed(18, "outer", i))
            )
            for i in range(20)
        ]
        tasks = []
        for mix in ("browsing", "shopping", "ordering"):
            scenario = Scenario(
                cluster=SMALL, mix=STANDARD_MIXES[mix], population=750
            )
            ctx = backend._context(scenario)
            think = scenario.behavior.effective_mean_think_time
            for cfg in configs:
                for population in (600, 750, 1000):
                    tasks.append((SMALL, cfg, population, ctx, think))
        solutions = backend.solve_tasks_multi(tasks)
        unconverged = [
            i
            for i, sol in enumerate(solutions)
            if sol.diagnostics["solver.converged"] != 1.0
        ]
        assert unconverged == []


class TestUnchangedWithoutReversal:
    @pytest.mark.parametrize(
        "mix,bits",
        [
            # Values of the fixed-step loop, whose residual never
            # reverses on these two solves: the bracketed step must
            # reproduce them bit for bit.
            ("browsing", "0x1.55767bb4f56a0p+6"),
            ("shopping", "0x1.6e92a139fa2fdp+6"),
        ],
    )
    def test_default_bits(self, mix, bits):
        m = _measure(SMALL, mix, 750)
        assert m.wips.hex() == bits
        assert m.diagnostics["solver.converged"] == 1.0
