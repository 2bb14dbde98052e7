"""The batched MVA solver must match the scalar solver, bit for bit.

The batch path exists purely for speed: rows are stacked on a batch axis,
solved in one vectorized fixed point, and compacted away as they
converge; groups of a few rows, and the last few active rows of a large
group, run a scalar-python row kernel instead.  None of that may change
numbers — the contract (and what the experiment pipeline's determinism
rests on) is that every field of every result equals the scalar
solver's output exactly.  The property-style tests below check that
across randomized station sets, multiplicities, populations and
multi-server configurations, far beyond the issue's 1e-10 bar.
"""

import warnings

import numpy as np
import pytest

from repro.model import mva
from repro.model.mva import (
    MvaNetwork,
    Station,
    _add_reduce,
    solve_mva,
    solve_mva_batch,
)


def random_network(
    rng: np.random.Generator, n: int | None = None, method: str = "schweitzer"
) -> MvaNetwork:
    """A random row with ``n`` stations (default: drawn).

    Station counts of 0-40 reach numpy's three short summation cases
    (below 8, one block of 8 plus a remainder, several blocks), and one
    row in ten draws 129-300 stations, where numpy splits the sum in
    two.  Half the rows weight their stations by a multiplicity; some
    stations have zero demand and some rows zero think or extra delay.
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


def solve_in_row_groups(networks) -> list:
    """Solve ``networks`` in consecutive calls of 1, 2, ... up to the
    row-kernel cutoff rows each, so every call takes the row kernel."""
    results, start, size = [], 0, 1
    while start < len(networks):
        results += solve_mva_batch(networks[start:start + size])
        start += size
        size = size % mva._ROW_KERNEL_MAX + 1
    return results


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_networks_bit_identical(self, seed):
        """30 random networks per seed: every result field matches exactly."""
        rng = np.random.default_rng(seed)
        nets = [random_network(rng) for _ in range(30)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scalar = [
                solve_mva(
                    list(net.stations),
                    net.population,
                    net.think_time,
                    extra_delay=net.extra_delay,
                )
                for net in nets
            ]
            batch = solve_mva_batch(nets)
        assert len(batch) == len(nets)
        for a, b in zip(scalar, batch):
            assert b.throughput == a.throughput
            assert b.response_time == a.response_time
            assert b.residence == a.residence
            assert b.queue == a.queue
            assert b.utilization == a.utilization
            assert b.iterations == a.iterations
            assert b.converged == a.converged

    def test_within_issue_tolerance(self):
        """The headline acceptance bound: agreement to 1e-10 (we hold 0)."""
        rng = np.random.default_rng(99)
        nets = [random_network(rng) for _ in range(50)]
        scalar = [
            solve_mva(
                list(net.stations),
                net.population,
                net.think_time,
                extra_delay=net.extra_delay,
            )
            for net in nets
        ]
        batch = solve_mva_batch(nets)
        for a, b in zip(scalar, batch):
            assert abs(b.throughput - a.throughput) <= 1e-10
            for name in a.residence:
                assert abs(b.residence[name] - a.residence[name]) <= 1e-10

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
            want = solve_mva(
                list(net.stations), net.population, net.think_time,
                extra_delay=net.extra_delay,
            )
            assert got.throughput == want.throughput
            assert got.queue == want.queue

    def test_zero_station_network(self):
        """A delay-only network is pure think time: X = N / (Z + delays)."""
        (res,) = solve_mva_batch([MvaNetwork((), 40, 2.0, extra_delay=0.5)])
        assert res.throughput == pytest.approx(40 / 2.5)
        assert res.converged

    def test_empty_batch(self):
        assert solve_mva_batch([]) == []

    def test_submission_order_preserved(self):
        """Grouping by station count must not reorder results."""
        rng = np.random.default_rng(3)
        nets = [random_network(rng) for _ in range(20)]
        batch = solve_mva_batch(nets)
        for net, got in zip(nets, batch):
            want = solve_mva(
                list(net.stations), net.population, net.think_time,
                extra_delay=net.extra_delay,
            )
            assert got.throughput == want.throughput


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

    def test_batch_warns_like_scalar(self):
        nets = [
            MvaNetwork((Station("cpu", 0.05), Station("disk", 0.03)), 500, 1.0)
            for _ in range(3)
        ]
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            batch = solve_mva_batch(nets, max_iter=2)
        assert sum(issubclass(w.category, RuntimeWarning) for w in ws) == 3
        assert all(not r.converged for r in batch)
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            scalar = solve_mva(list(nets[0].stations), 500, 1.0, max_iter=2)
        assert batch[0].throughput == scalar.throughput

    def test_mva_network_validation(self):
        with pytest.raises(ValueError):
            MvaNetwork((), 0, 1.0)
        with pytest.raises(ValueError):
            MvaNetwork((), 10, -1.0)


class TestRowKernel:
    """Three paths, one answer: the row kernel (groups of at most
    ``_ROW_KERNEL_MAX`` rows), the vectorized group (more rows than
    that; its last active rows finish in the row loop) and
    :func:`solve_mva`."""

    @pytest.mark.parametrize("seed", range(12))
    def test_three_paths_bit_identical(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        # One station count per group; every fourth seed a long row.
        n = int(rng.integers(129, 301) if seed % 4 == 3 else rng.integers(1, 41))
        nets = [random_network(rng, n) for _ in range(2 * mva._ROW_KERNEL_MAX + 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scalar = [
                solve_mva(
                    list(net.stations),
                    net.population,
                    net.think_time,
                    extra_delay=net.extra_delay,
                )
                for net in nets
            ]
            rows = solve_in_row_groups(nets)
            vectorized = solve_mva_batch(nets)
            # Cutoff 0: the vectorized loop runs every row to the end.
            monkeypatch.setattr(mva, "_ROW_KERNEL_MAX", 0)
            numpy_only = solve_mva_batch(nets)
        want = [result_bits(r) for r in scalar]
        assert [result_bits(r) for r in rows] == want
        assert [result_bits(r) for r in vectorized] == want
        assert [result_bits(r) for r in numpy_only] == want

    def test_zero_total_delay_gets_infinite_throughput(self):
        """All-zero demand and no delay: the guarded division gives inf
        on every path, as numpy's would, instead of raising."""
        net = MvaNetwork(
            (Station("a", 0.0), Station("b", 0.0, servers=2)), 5, 0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scalar = solve_mva(list(net.stations), 5, 0.0, max_iter=50)
            (row,) = solve_mva_batch([net], max_iter=50)
            group = solve_mva_batch([net] * (mva._ROW_KERNEL_MAX + 1), max_iter=50)
        assert row.throughput == float("inf")
        assert result_bits(row) == result_bits(scalar)
        assert all(result_bits(r) == result_bits(scalar) for r in group)


class TestAddReduce:
    """The row kernels' sum must be numpy's float64 add-reduction."""

    LENGTHS = [*range(301), 8191, 8192, 8193, 12345, 65537]

    @pytest.mark.parametrize("kind", ["positive", "signed", "signed-zeros"])
    def test_matches_numpy_bit_for_bit(self, kind):
        rng = np.random.default_rng(7)
        for n in self.LENGTHS:
            if kind == "positive":
                values = rng.uniform(0.0, 1.0, n)
            else:
                # Magnitudes over 16 decades make every association show.
                values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            if kind == "signed-zeros":
                values[rng.random(n) < 0.5] = -0.0
                values[rng.random(n) < 0.2] = 0.0
            want = float.hex(np.add.reduce(values))
            assert float.hex(_add_reduce(values.tolist())) == want, n

    def test_all_negative_zeros(self):
        for n in range(20):
            values = np.full(n, -0.0)
            assert float.hex(_add_reduce(values.tolist())) == float.hex(
                np.add.reduce(values)
            ), n
