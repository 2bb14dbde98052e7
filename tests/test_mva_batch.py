"""The batched MVA solver against the iterating reference, and itself.

:func:`solve_mva_batch` solves every row, Schweitzer or fluid, with one
root-finding kernel: safeguarded Newton on the population equation.  The
iterating :func:`solve_mva` is the reference it is checked against, by
tolerance: the iteration stops within 1e-7 of its own fixed point, so
throughput and utilization must agree to 1e-7 with it at its default
tolerance, and every field to 1e-9 with it run to ``tol=1e-14`` (the
default iterate's residences can be off by 3e-5).  Across execution
paths the kernel is exact: a row's result is bit-identical alone, inside
any batch, in any position — what the experiment pipeline's determinism
(engine × jobs, speculation, caches) rests on.
"""

import math

import numpy as np
import pytest

from repro.model.mva import (
    MvaNetwork,
    Station,
    solve_mva,
    solve_mva_batch,
)


def random_network(
    rng: np.random.Generator, n: int | None = None, method: str = "schweitzer"
) -> MvaNetwork:
    """A random row with ``n`` stations (default: drawn).

    Station counts are 0-40, and one row in ten draws 129-300 stations.
    Half the rows weight their stations by a multiplicity; some stations
    have zero demand and some rows zero think or extra delay.
    """
    if n is None:
        n = int(rng.integers(129, 301) if rng.random() < 0.1 else rng.integers(0, 41))
    weighted = rng.random() < 0.5
    stations = tuple(
        Station(
            name=f"s{j}",
            demand=0.0 if rng.random() < 0.1 else float(rng.uniform(0.0005, 0.08)),
            servers=int(rng.integers(1, 5)),
            multiplicity=int(rng.integers(1, 65)) if weighted else 1,
        )
        for j in range(n)
    )
    if method == "fluid":
        population = int(10 ** rng.uniform(0.0, 7.0))
    else:
        population = int(rng.integers(1, 900))
    return MvaNetwork(
        stations=stations,
        population=population,
        think_time=0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 8.0)),
        extra_delay=0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.1)),
        method=method,
    )


def result_bits(result) -> tuple:
    """Every field of an MvaResult, floats as ``float.hex``: equal bits,
    not just equal values (tells ``-0.0`` from ``0.0``, matches NaN)."""

    def hexed(values):
        return {name: float.hex(v) for name, v in values.items()}

    return (
        float.hex(result.throughput),
        float.hex(result.response_time),
        hexed(result.residence),
        hexed(result.queue),
        hexed(result.utilization),
        result.iterations,
        result.converged,
    )


def reference(net: MvaNetwork, **kwargs):
    """The iterating solver on one Schweitzer row."""
    return solve_mva(
        list(net.stations), net.population, net.think_time,
        extra_delay=net.extra_delay, **kwargs,
    )


def rel_err(got: float, want: float) -> float:
    """Relative distance of ``got`` from ``want`` (0 when equal)."""
    if got == want:
        return 0.0
    return abs(got - want) / abs(want)


#: Throughput and utilization vs :func:`solve_mva` at its default
#: tolerance (the largest seen over 1,200 random rows is 8.5e-8).
DEFAULT_TOL = 1e-7
#: Every field vs :func:`solve_mva` at ``tol=1e-14`` (largest seen 3.4e-12).
TIGHT_TOL = 1e-9


def assert_matches_reference(got, net: MvaNetwork) -> None:
    """``got`` (the kernel's result for ``net``) against both references."""
    loose = reference(net)
    assert rel_err(got.throughput, loose.throughput) <= DEFAULT_TOL
    for name, u in loose.utilization.items():
        assert rel_err(got.utilization[name], u) <= DEFAULT_TOL, name
    tight = reference(net, tol=1e-14)
    assert tight.converged
    assert rel_err(got.throughput, tight.throughput) <= TIGHT_TOL
    assert rel_err(got.response_time, tight.response_time) <= TIGHT_TOL
    for field in ("residence", "queue", "utilization"):
        want = getattr(tight, field)
        have = getattr(got, field)
        assert have.keys() == want.keys()
        for name, value in want.items():
            assert rel_err(have[name], value) <= TIGHT_TOL, (field, name)


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_networks_bit_identical(self, seed):
        """30 random rows per seed (1,200 in all): a batch equals its rows
        solved alone bit for bit, and every row sits within the stated
        tolerances of the iterating reference."""
        rng = np.random.default_rng(seed)
        nets = [random_network(rng) for _ in range(30)]
        batch = solve_mva_batch(nets)
        assert len(batch) == len(nets)
        for net, got in zip(nets, batch):
            assert result_bits(got) == result_bits(solve_mva_batch([net])[0])
            if math.isinf(got.throughput):  # no delay anywhere
                assert math.isinf(reference(net).throughput)
                continue
            assert_matches_reference(got, net)
            assert got.converged

    def test_within_issue_tolerance(self):
        """The headline acceptance bound, on a fresh seed."""
        rng = np.random.default_rng(99)
        for net in [random_network(rng) for _ in range(50)]:
            (got,) = solve_mva_batch([net])
            if not math.isinf(got.throughput):
                assert_matches_reference(got, net)

    def test_heterogeneous_station_counts_one_call(self):
        """Networks of different sizes may share one batch call."""
        nets = [
            MvaNetwork((), 10, 1.0),
            MvaNetwork((Station("a", 0.01),), 50, 2.0),
            MvaNetwork(
                (Station("a", 0.01), Station("b", 0.02, servers=4)), 200, 3.0
            ),
        ]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            assert_matches_reference(got, net)

    def test_zero_station_network(self):
        """A delay-only network is pure think time: X = N / (Z + delays)."""
        (res,) = solve_mva_batch([MvaNetwork((), 40, 2.0, extra_delay=0.5)])
        assert res.throughput == pytest.approx(40 / 2.5)
        assert res.converged

    def test_empty_batch(self):
        assert solve_mva_batch([]) == []

    def test_submission_order_preserved(self):
        """Results come back in submission order."""
        rng = np.random.default_rng(3)
        nets = [random_network(rng) for _ in range(20)]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            want = reference(net).throughput
            if math.isinf(want):
                assert math.isinf(got.throughput)
            else:
                assert rel_err(got.throughput, want) <= DEFAULT_TOL


class TestConvergenceReporting:
    def test_scalar_warns_and_flags_non_convergence(self):
        stations = [Station("cpu", 0.05), Station("disk", 0.03)]
        with pytest.warns(RuntimeWarning, match="did not converge"):
            res = solve_mva(stations, 500, 1.0, max_iter=2)
        assert res.converged is False
        assert res.iterations == 2

    def test_scalar_converged_result_is_flagged(self):
        res = solve_mva([Station("cpu", 0.01)], 50, 1.0)
        assert res.converged is True
        assert res.iterations >= 1

    def test_mva_network_validation(self):
        with pytest.raises(ValueError):
            MvaNetwork((), 0, 1.0)
        with pytest.raises(ValueError):
            MvaNetwork((), 10, -1.0)


#: The conservation row: a plain station, an aggregated two-server tier,
#: an idle station and a weighted light one.
CONSERVATION_ROW = (
    Station("a", 0.01),
    Station("b", 0.02, servers=2, multiplicity=3),
    Station("c", 0.0),
    Station("d", 0.004, multiplicity=5),
)


class TestRowKernel:
    """One kernel, one answer per row, whatever the path."""

    @pytest.mark.parametrize("seed", range(12))
    def test_three_paths_bit_identical(self, seed):
        """A row solved alone, inside a batch, in reversed order, and
        mixed with fluid rows: every field equal bit for bit."""
        rng = np.random.default_rng(seed)
        # Every fourth seed a long row.
        n = int(rng.integers(129, 301) if seed % 4 == 3 else rng.integers(1, 41))
        nets = [random_network(rng, n) for _ in range(13)]
        fluid = [random_network(rng, method="fluid") for _ in range(7)]
        alone = [result_bits(solve_mva_batch([net])[0]) for net in nets]
        assert [result_bits(r) for r in solve_mva_batch(nets)] == alone
        backwards = solve_mva_batch(nets[::-1])
        assert [result_bits(r) for r in backwards[::-1]] == alone
        # Fluid and Schweitzer rows interleaved, then the rest.
        mixed = [row for pair in zip(fluid, nets) for row in pair]
        mixed += nets[len(fluid):]
        assert [
            result_bits(r)
            for net, r in zip(mixed, solve_mva_batch(mixed))
            if net.method == "schweitzer"
        ] == alone

    def test_zero_total_delay_gets_infinite_throughput(self):
        """All-zero demand and no delay: throughput is inf instead of a
        ZeroDivisionError, alone and in a batch."""
        net = MvaNetwork(
            (Station("a", 0.0), Station("b", 0.0, servers=2)), 5, 0.0
        )
        (row,) = solve_mva_batch([net])
        assert row.throughput == float("inf")
        assert all(
            result_bits(r) == result_bits(row)
            for r in solve_mva_batch([net] * 7)
        )

    @pytest.mark.parametrize("method", ["schweitzer", "fluid"])
    def test_population_conserved_at_any_n(self, method):
        """Throughput times the pure delay plus every station's queue
        adds back up to N, at every N; the bottleneck queue, which holds
        nearly everyone at large N, is formed from the slack itself."""
        think, extra = 7.0, 0.005
        mult = {s.name: s.multiplicity for s in CONSERVATION_ROW}
        for population in (1, 2, 750, 10**6, 10**9, 10**12, 10**15):
            (res,) = solve_mva_batch([
                MvaNetwork(CONSERVATION_ROW, population, think, extra, method)
            ])
            fields = [res.throughput, res.response_time]
            for values in (res.residence, res.queue, res.utilization):
                fields += values.values()
            assert all(math.isfinite(v) for v in fields), population
            held = res.throughput * (think + extra) + sum(
                mult[name] * q for name, q in res.queue.items()
            )
            assert abs(held - population) <= 1e-9 * population, population
            assert res.iterations <= 12, population
