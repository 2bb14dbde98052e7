"""Property-based tests for the statistics, queueing and cache models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.mva import (
    MVA_METHODS,
    MvaNetwork,
    Station,
    solve_mva,
    solve_mva_batch,
)
from repro.model.pools import mmck
from repro.tpcw.catalog import Catalog
from repro.util.stats import RunningStats
from tests.test_mva_batch import random_network, rel_err

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_matches_numpy(self, data):
        s = RunningStats(data)
        assert s.mean == pytest.approx(float(np.mean(data)), rel=1e-9, abs=1e-7)
        if len(data) > 1:
            assert s.variance == pytest.approx(
                float(np.var(data, ddof=1)), rel=1e-6, abs=1e-6
            )

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
    )
    def test_merge_equals_concatenation(self, a, b):
        merged = RunningStats(a).merge(RunningStats(b))
        combined = RunningStats(a + b)
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-7)
        assert merged.variance == pytest.approx(
            combined.variance, rel=1e-6, abs=1e-6
        )

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_min_le_mean_le_max(self, data):
        s = RunningStats(data)
        assert s.minimum - 1e-9 <= s.mean <= s.maximum + 1e-9


class TestMvaProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-4, max_value=1.0),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_invariants(self, station_specs, population, think):
        stations = [
            Station(f"s{i}", d, c) for i, (d, c) in enumerate(station_specs)
        ]
        result = solve_mva(stations, population, think)
        # Throughput positive and bounded by every capacity limit.
        assert result.throughput > 0
        for (d, c) in station_specs:
            assert result.throughput <= c / d * 1.01
        # Bounded by N / (Z + sum D) from below... and N/Z from above.
        if think > 0:
            assert result.throughput <= population / think * 1.01
        # Utilizations in [0, 1].
        for u in result.utilization.values():
            assert -1e-9 <= u <= 1.0 + 1e-9
        # Queues non-negative.
        for q in result.queue.values():
            assert q >= -1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_monotone_in_population(self, n):
        stations = [Station("s", 0.05)]
        x1 = solve_mva(stations, n, 1.0).throughput
        x2 = solve_mva(stations, n + 10, 1.0).throughput
        assert x2 >= x1 - 1e-6


#: Populations the root-kernel invariants sweep, 1 to 10^6.
POPULATIONS = (1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10**4, 10**5, 10**6)


def _sweep(net: MvaNetwork, method: str) -> list:
    """``net`` solved by ``method`` at every population of the sweep."""
    return solve_mva_batch([
        MvaNetwork(net.stations, n, net.think_time, net.extra_delay, method)
        for n in POPULATIONS
    ])


class TestRootKernelInvariants:
    """Textbook invariants of :func:`solve_mva_batch`, both methods, on
    seeded random rows at populations from 1 to 10^6."""

    @pytest.mark.parametrize("seed", range(16))
    def test_bounds_monotonicity_and_ordering(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(30):
            net = random_network(rng)
            stations = net.stations
            # Z + Σ m·D with D the whole demand: Seidmann parts included.
            delay = net.think_time + net.extra_delay + sum(
                s.multiplicity * s.demand for s in stations
            )
            if not delay > 0.0:  # no delay anywhere: X is inf
                continue
            d_max = max((s.demand / s.servers for s in stations), default=0.0)
            solved = {method: _sweep(net, method) for method in MVA_METHODS}
            for method, results in solved.items():
                previous = 0.0
                for n, res in zip(POPULATIONS, results):
                    x = res.throughput
                    c = 1.0 if method == "fluid" else (n - 1) / n
                    assert x <= n / delay * (1 + 1e-12), (method, n)
                    assert c * x * d_max < 1.0, (method, n)
                    # Unclamped bottleneck utilization, so U <= 1.
                    assert x * d_max <= 1.0 + 1e-12, (method, n)
                    assert x >= previous * (1 - 1e-12), (method, n)
                    assert all(q >= 0.0 for q in res.queue.values())
                    previous = x
            for fluid, schweitzer in zip(solved["fluid"], solved["schweitzer"]):
                assert fluid.throughput <= schweitzer.throughput * (1 + 1e-12)

    @pytest.mark.parametrize("method", MVA_METHODS)
    def test_replicas_equal_multiplicity(self, method):
        # A station of multiplicity k and k explicit copies of it are
        # the same network.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 12:
            net = random_network(rng, n=int(rng.integers(1, 13)))
            if all(s.multiplicity == 1 for s in net.stations):
                continue
            checked += 1
            copies = tuple(
                Station(f"{s.name}.{i}", s.demand, s.servers)
                for s in net.stations
                for i in range(s.multiplicity)
            )
            flat_net = MvaNetwork(copies, 1, net.think_time, net.extra_delay)
            for n, agg, flat in zip(
                POPULATIONS, _sweep(net, method), _sweep(flat_net, method)
            ):
                assert rel_err(flat.throughput, agg.throughput) <= 1e-12
                assert rel_err(flat.response_time, agg.response_time) <= 1e-12
                for s in net.stations:
                    for field in ("residence", "queue", "utilization"):
                        want = getattr(agg, field)[s.name]
                        for i in range(s.multiplicity):
                            got = getattr(flat, field)[f"{s.name}.{i}"]
                            assert rel_err(got, want) <= 1e-12, (field, n)


class TestMmckProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    def test_invariants(self, lam, hold, servers, extra):
        res = mmck(lam, hold, servers, servers + extra)
        assert 0.0 <= res.blocking <= 1.0
        assert res.wait >= 0.0
        assert 0.0 <= res.busy <= servers + 1e-9
        assert math.isfinite(res.wait)
        # Accepted throughput cannot exceed the pool's service capacity.
        accepted = lam * (1 - res.blocking)
        assert accepted <= servers / hold + 1e-6


class TestCatalogProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=50, max_value=2000),
        st.floats(min_value=0.0, max_value=1.5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_hit_fraction_in_unit_interval(self, scale, zipf, seed):
        cat = Catalog(scale=scale, zipf_exponent=zipf, seed=seed)
        for cache in (0.0, 1e6, 1e9):
            h = cat.hit_fraction(cache)
            assert 0.0 <= h <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=50, max_value=1000),
        st.integers(min_value=0, max_value=2**31),
        st.lists(
            st.floats(min_value=1e4, max_value=1e9),
            min_size=2, max_size=6,
        ),
    )
    def test_hit_fraction_monotone_in_capacity(self, scale, seed, sizes):
        cat = Catalog(scale=scale, seed=seed)
        sizes = sorted(sizes)
        hits = [cat.hit_fraction(s) for s in sizes]
        assert all(a <= b + 1e-12 for a, b in zip(hits, hits[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_tighter_bounds_never_increase_hits(self, seed):
        cat = Catalog(scale=500, seed=seed)
        cache = 8e6
        wide = cat.hit_fraction(cache, 0.0, 1e9)
        narrow = cat.hit_fraction(cache, 2048.0, 64 * 1024.0)
        assert narrow <= wide + 1e-12
