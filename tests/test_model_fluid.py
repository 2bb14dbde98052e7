"""Tests for the fluid/mean-field MVA solver."""

import numpy as np
import pytest

from repro.model import mva
from repro.model.fluid import solve_mva_fluid
from repro.model.mva import (
    MvaNetwork,
    Station,
    solve_mva,
    solve_mva_batch,
    solve_mva_exact,
)
from tests.test_mva_batch import random_network, result_bits, solve_in_row_groups

#: Station sets for the parametrized exact-vs-fluid comparisons.
MIXES = {
    "balanced": [Station(f"s{i}", d) for i, d in enumerate([0.010, 0.012, 0.008])],
    "bottleneck": [Station(f"s{i}", d) for i, d in enumerate([0.050, 0.010, 0.005])],
    "skewed": [Station(f"s{i}", d) for i, d in enumerate([0.030, 0.001, 0.001])],
}


class TestValidation:
    def test_bad_population(self):
        with pytest.raises(ValueError):
            solve_mva_fluid([Station("s", 0.1)], 0, 1.0)

    def test_negative_think(self):
        with pytest.raises(ValueError):
            solve_mva_fluid([Station("s", 0.1)], 1, -1.0)

    def test_pure_delay(self):
        assert solve_mva_fluid([], 10, 2.0).throughput == pytest.approx(5.0)


class TestAgainstExact:
    """Fluid vs the exact MVA recursion, with explicit error bands.

    The fluid limit is asymptotically exact: the error peaks near the
    saturation knee (N* = (z + sum D)/D_max) and vanishes on both sides.
    """

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("population", [1, 5, 20, 50, 100, 500, 2000])
    def test_error_band(self, mix, population):
        stations = MIXES[mix]
        exact = solve_mva_exact(stations, population, 1.0).throughput
        fluid = solve_mva_fluid(stations, population, 1.0).throughput
        # Worst case observed across these mixes is ~4.6e-2 at the knee.
        assert fluid == pytest.approx(exact, rel=6e-2)
        # Fluid never exceeds the capacity bound and never goes negative.
        d_max = max(s.demand / s.servers for s in stations)
        assert 0.0 < fluid <= 1.0 / d_max + 1e-9

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_tight_far_from_knee(self, mix):
        stations = MIXES[mix]
        light = 1
        heavy = 5000
        for population, band in ((light, 1e-2), (heavy, 1e-3)):
            exact = solve_mva_exact(stations, population, 1.0).throughput
            fluid = solve_mva_fluid(stations, population, 1.0).throughput
            assert fluid == pytest.approx(exact, rel=band)

    def test_asymptotically_exact(self):
        # X -> 1/D_max as N -> inf; the error must shrink monotonically
        # well past the knee.
        stations = MIXES["bottleneck"]
        cap = 1.0 / max(s.demand for s in stations)
        errs = [
            abs(solve_mva_fluid(stations, n, 1.0).throughput - cap) / cap
            for n in (1_000, 100_000, 10_000_000)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestAgainstSchweitzer:
    """Fluid vs Schweitzer on multi-server stations (no exact reference)."""

    @pytest.mark.parametrize("population", [50, 500, 5000])
    def test_multi_server(self, population):
        stations = [
            Station("a", 0.04, servers=4),
            Station("b", 0.02, servers=2),
            Station("c", 0.01),
        ]
        schw = solve_mva(stations, population, 1.0).throughput
        fluid = solve_mva_fluid(stations, population, 1.0).throughput
        assert fluid == pytest.approx(schw, rel=1e-2)


class TestDegenerates:
    def test_single_customer_zero_think(self):
        # The known small-N limitation: with z=0 and one station the
        # population equation rho/(1-rho) = 1 gives rho = 1/2, i.e. the
        # fluid X is half the exact 1/D.  This is why auto mode only
        # selects fluid at large N.
        result = solve_mva_fluid([Station("s", 0.1)], 1, 0.0)
        assert result.converged
        assert result.throughput == pytest.approx(5.0, rel=1e-6)
        assert solve_mva_exact(
            [Station("s", 0.1)], 1, 0.0
        ).throughput == pytest.approx(10.0)

    def test_single_station_large_n(self):
        result = solve_mva_fluid([Station("s", 0.01)], 10_000, 1.0)
        assert result.throughput == pytest.approx(100.0, rel=2e-4)
        assert result.utilization["s"] == pytest.approx(1.0, abs=2e-4)

    def test_zero_think_time_large_n(self):
        stations = MIXES["balanced"]
        fluid = solve_mva_fluid(stations, 2000, 0.0).throughput
        cap = 1.0 / max(s.demand for s in stations)
        assert fluid == pytest.approx(cap, rel=1e-3)

    def test_zero_demand_station(self):
        result = solve_mva_fluid(
            [Station("idle", 0.0), Station("busy", 0.02)], 1000, 1.0
        )
        assert result.utilization["idle"] == 0.0
        assert result.queue["idle"] == 0.0
        assert result.throughput == pytest.approx(50.0, rel=2e-3)

    def test_population_independence_of_cost(self):
        # The fixed point iterates to a tolerance on X, not over N: the
        # iteration count must not grow with the population.
        small = solve_mva_fluid(MIXES["balanced"], 1_000, 1.0).iterations
        huge = solve_mva_fluid(MIXES["balanced"], 10**9, 1.0).iterations
        assert huge <= small + 5


class TestBatchConsistency:
    def test_batch_matches_scalar(self):
        # Fluid rows in a batch must equal the scalar solver bit for bit.
        # The scalar solver runs the row kernel; a batch above the
        # row-kernel cutoff runs the vectorized one.
        nets = [
            MvaNetwork(tuple(MIXES["balanced"]), n, 1.0, method="fluid")
            for n in (10, 500, 100_000, 1, 40, 2_000, 10**6, 10**9)
        ]
        assert len(nets) > mva._ROW_KERNEL_MAX
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            ref = solve_mva_fluid(
                list(net.stations), net.population, net.think_time
            )
            assert got.throughput == ref.throughput
            assert got.response_time == ref.response_time
            assert got.iterations == ref.iterations
            assert got.queue == ref.queue

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_rows_bit_identical(self, seed):
        # Random fluid rows of one station count, plus pure-delay rows
        # (no queueing demand; one with no delay at all, whose throughput
        # is inf): the row kernel, alone and in small groups, must equal
        # the vectorized kernel on the whole group, field for field.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(129, 301) if seed % 4 == 3 else rng.integers(1, 41))
        nets = [
            random_network(rng, n, method="fluid")
            for _ in range(2 * mva._ROW_KERNEL_MAX)
        ]
        idle = tuple(
            Station(f"s{j}", 0.0, servers=int(rng.integers(1, 5)),
                    multiplicity=int(rng.integers(1, 9)))
            for j in range(n)
        )
        nets += [
            MvaNetwork(idle, 1000, 2.0, 0.1, method="fluid"),
            MvaNetwork(idle, 7, 0.0, method="fluid"),
        ]
        vectorized = solve_mva_batch(nets)
        rows = solve_in_row_groups(nets)
        scalar = [
            solve_mva_fluid(
                list(net.stations), net.population, net.think_time,
                net.extra_delay,
            )
            for net in nets
        ]
        assert vectorized[-1].throughput == float("inf")
        want = [result_bits(r) for r in vectorized]
        assert [result_bits(r) for r in rows] == want
        assert [result_bits(r) for r in scalar] == want

    def test_mixed_methods_batch(self):
        # Schweitzer and fluid rows mix in one batch; each row matches
        # its scalar reference exactly.
        nets = [
            MvaNetwork(tuple(MIXES["balanced"]), 100, 1.0),
            MvaNetwork(tuple(MIXES["bottleneck"]), 50_000, 1.0, method="fluid"),
            MvaNetwork(tuple(MIXES["skewed"]), 200, 1.0),
        ]
        batch = solve_mva_batch(nets)
        assert batch[0].throughput == solve_mva(
            list(nets[0].stations), 100, 1.0
        ).throughput
        assert batch[1].throughput == solve_mva_fluid(
            list(nets[1].stations), 50_000, 1.0
        ).throughput
        assert batch[2].throughput == solve_mva(
            list(nets[2].stations), 200, 1.0
        ).throughput

    def test_method_validation(self):
        with pytest.raises(ValueError):
            MvaNetwork(tuple(MIXES["balanced"]), 10, 1.0, method="magic")
