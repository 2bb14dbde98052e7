"""Single-class approximate Mean Value Analysis (Schweitzer).

Solves a closed queueing network with ``N`` customers, a think-time delay
``Z``, and a set of queueing stations.  Multi-server stations use Seidmann's
transformation: an *m*-server station with per-visit demand ``D`` behaves
(approximately) like a single-server station of demand ``D/m`` in series
with a pure delay of ``D·(m-1)/m``.  Schweitzer's fixed point replaces the
exact MVA population recursion, making the solve O(iterations × stations)
independent of ``N`` — this is what lets the benchmark harness run hundreds
of 23-parameter tuning iterations in milliseconds.

:func:`solve_mva_batch` solves B independent networks in one vectorized
fixed point (stations stacked on a batch axis, per-row convergence
masking); groups of a few rows run a scalar-python row kernel instead,
which is faster there.  Each row performs exactly the floating-point
operations of the scalar solver, row sums in numpy's order included, so
batched and scalar results are bit-identical — callers that evaluate many
configurations against one scenario can batch freely without perturbing
results.

References: Reiser & Lavenberg (exact MVA); Schweitzer 1979; Seidmann,
Schweitzer & Shalev-Oren 1987.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Station",
    "MvaResult",
    "MvaNetwork",
    "MVA_METHODS",
    "solve_mva",
    "solve_mva_batch",
    "solve_mva_exact",
]


@dataclass(frozen=True)
class Station:
    """One service centre: a label, per-customer demand, and server count.

    ``multiplicity`` marks an *aggregated* station: one row standing in
    for that many identical replicas (hierarchical MVA over a homogeneous
    tier).  Per-station outputs (residence, queue, utilization) describe a
    single replica; network-level sums weight the station by its
    multiplicity.  The default of 1 is an ordinary station and leaves
    every solver bit-identical to the pre-multiplicity code.
    """

    name: str
    demand: float  # total service demand per customer visit cycle, seconds
    servers: int = 1
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"{self.name}: demand must be non-negative")
        if self.servers < 1:
            raise ValueError(f"{self.name}: servers must be >= 1")
        if self.multiplicity < 1:
            raise ValueError(f"{self.name}: multiplicity must be >= 1")


@dataclass(frozen=True)
class MvaResult:
    """Solution of the closed network."""

    #: System throughput, customers (interactions) per second.
    throughput: float
    #: Total response time per cycle excluding think time, seconds.
    response_time: float
    #: Per-station residence time (queueing + service + Seidmann delay).
    residence: dict[str, float]
    #: Per-station mean queue length (customers in station).
    queue: dict[str, float]
    #: Per-station utilization (fraction of total service capacity busy).
    utilization: dict[str, float]
    #: Fixed-point iterations used.
    iterations: int
    #: Whether the fixed point met the tolerance within ``max_iter``.
    converged: bool = True

    def bottleneck(self) -> str:
        """Name of the most utilized station."""
        return max(self.utilization, key=self.utilization.get)  # type: ignore[arg-type]


def solve_mva(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> MvaResult:
    """Solve the closed network via the Schweitzer fixed point.

    Parameters
    ----------
    stations:
        Queueing stations (multi-server handled via Seidmann).
    population:
        Number of circulating customers (emulated browsers), >= 1.
    think_time:
        Pure delay per cycle (EB think time), seconds.
    extra_delay:
        Additional pure delay per cycle (e.g. pool waiting times computed by
        an outer fixed point, or network propagation).
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if think_time < 0 or extra_delay < 0:
        raise ValueError("delays must be non-negative")
    n = len(stations)
    if n == 0:
        total_delay = think_time + extra_delay
        x = population / total_delay if total_delay > 0 else float("inf")
        return MvaResult(x, extra_delay, {}, {}, {}, 0)

    demand = np.array([s.demand for s in stations], dtype=float)
    servers = np.array([s.servers for s in stations], dtype=float)
    mult = np.array([s.multiplicity for s in stations], dtype=float)
    # Aggregated stations weight network-level sums by their replica
    # count; the all-ones case keeps the exact pre-multiplicity
    # expressions so existing results stay bit-identical.  Exactness is
    # the point: multiplicities are integers stored exactly in floats.
    weighted = bool((mult != 1.0).any())  # repro: noqa[RPL004]
    # Seidmann: queueing part D/m, delay part D*(m-1)/m.
    q_demand = demand / servers
    s_delay = demand * (servers - 1.0) / servers
    if weighted:
        z = think_time + extra_delay + float((s_delay * mult).sum())
        n_eff = float(mult.sum())
    else:
        z = think_time + extra_delay + float(s_delay.sum())
        n_eff = float(max(n, 1))

    N = float(population)
    queue = np.full(n, N / n_eff * 0.5)
    x = 0.0
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        # Schweitzer: arriving customer sees (N-1)/N of the queue.
        residence = q_demand * (1.0 + queue * (N - 1.0) / N)
        if weighted:
            total = z + float((residence * mult).sum())
        else:
            total = z + float(residence.sum())
        x_new = N / total if total > 0 else float("inf")
        queue_new = x_new * residence
        if abs(x_new - x) <= tol * max(x_new, 1e-12) and np.all(
            np.abs(queue_new - queue) <= tol * np.maximum(queue_new, 1e-9)
        ):
            x, queue = x_new, queue_new
            converged = True
            break
        x, queue = x_new, queue_new
    if not converged:
        warnings.warn(
            f"MVA fixed point did not converge within {max_iter} iterations "
            f"(N={population}, {n} stations); returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )

    residence = q_demand * (1.0 + queue * (N - 1.0) / N) + s_delay
    utilization = np.minimum(x * demand / servers, 1.0)
    if weighted:
        response = float((residence * mult).sum()) + extra_delay
    else:
        response = float(residence.sum()) + extra_delay
    return MvaResult(
        throughput=float(x),
        response_time=response,
        residence={s.name: float(r) for s, r in zip(stations, residence)},
        queue={
            s.name: float(q + x * d)
            for s, q, d in zip(stations, queue, s_delay)
        },
        utilization={s.name: float(u) for s, u in zip(stations, utilization)},
        iterations=it,
        converged=converged,
    )


#: Solution methods a :class:`MvaNetwork` row may request.
MVA_METHODS = ("schweitzer", "fluid")


@dataclass(frozen=True)
class MvaNetwork:
    """One closed network in a :func:`solve_mva_batch` submission.

    ``method`` selects the solver for this row: ``"schweitzer"`` (the
    default fixed point) or ``"fluid"`` (the O(stations),
    population-independent mean-field solve of
    :mod:`repro.model.fluid`).  A batch may mix methods freely — rows
    are grouped per ``(method, station count)`` and each group runs its
    own vectorized kernel.
    """

    stations: tuple[Station, ...]
    population: int
    think_time: float
    extra_delay: float = 0.0
    method: str = "schweitzer"

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.think_time < 0 or self.extra_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.method not in MVA_METHODS:
            raise ValueError(
                f"unknown MVA method {self.method!r}; expected one of "
                f"{MVA_METHODS}"
            )


#: Groups of at most this many rows run the scalar-python row kernel
#: (:func:`_solve_rows`, :func:`repro.model.fluid._solve_fluid_rows`);
#: larger groups run the vectorized kernel, whose Schweitzer loop also
#: hands its last active rows to the row loop.  On a few rows of a dozen
#: stations the array kernel's cost is per-call overhead on tiny arrays,
#: not arithmetic.  Measured on 12-station rows recorded from the tuning
#: workloads (2-vCPU x86-64 host, CPython 3.11, numpy 2.4; row-kernel
#: time over vectorized time, median of 40 groups per size): Schweitzer
#: 0.46 / 0.82 / 1.00 / 1.15 / 1.32 at 2 / 4 / 5 / 6 / 7 rows, fluid
#: 0.32 / 0.59 / 0.84 / 0.93 / 1.12 at 2 / 4 / 6 / 7 / 8 rows.  The
#: cutoff sits between the two break-even sizes, 5 and 7.
_ROW_KERNEL_MAX = 6

#: Length above which numpy's pairwise summation splits in two.
_PW_BLOCKSIZE = 128


def _add_reduce(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a float64 sequence, bit for bit.

    numpy sums float64 arrays pairwise, and a row kernel must associate
    its additions the same way to stay bit-identical with the vectorized
    kernels: below 8 elements left to right; up to ``_PW_BLOCKSIZE``
    elements in eight strided accumulators combined as a tree, then the
    remainder in order; above that, split at half the length rounded
    down to a multiple of 8, and recurse.  The reduction starts from the
    identity ``0.0``, which turns a ``-0.0`` total into ``0.0``.  The
    builtin ``sum`` is no substitute: since Python 3.12 it compensates
    its rounding errors.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > _PW_BLOCKSIZE:
        half = n // 2
        half -= half % 8
        return _add_reduce(values[:half]) + _add_reduce(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for v in values[end:]:
        total += v
    return total


def _row_inputs(
    stations: Sequence[Station],
) -> tuple[list[float], list[float], list[float], list[float], list[float]]:
    """One row's per-station inputs as python floats, for the row kernels.

    Returns ``(demand, servers, multiplicity, queueing demand, Seidmann
    delay)``; the Seidmann split is computed as the vectorized kernels
    compute it: ``D/m`` and ``D·(m-1)/m``.
    """
    demand = [float(s.demand) for s in stations]
    servers = [float(s.servers) for s in stations]
    mult = [float(s.multiplicity) for s in stations]
    qd = [d / m for d, m in zip(demand, servers)]
    s_delay = [d * (m - 1.0) / m for d, m in zip(demand, servers)]
    return demand, servers, mult, qd, s_delay


def _schweitzer_iterate(
    qd: list[float],
    mult: list[float] | None,
    N: float,
    z: float,
    x: float,
    queue: list[float],
    start_it: int,
    tol: float,
    max_iter: int,
) -> tuple[float, list[float], int, bool]:
    """Run one row's Schweitzer fixed point from iteration ``start_it``.

    ``x`` and ``queue`` are the state the previous iteration left (the
    initial guess when ``start_it`` is 1); ``mult`` is None for an
    unweighted row.  Returns ``(x, queue, iterations, converged)``.
    Every element goes through the binary64 operations of
    :func:`solve_mva` in the same order, and the row sum through
    :func:`_add_reduce`, so the result is bit-identical to the numpy
    loops.  The queue list is only built when the throughput test
    passes: the next residence is computed from ``x * residence``
    directly, the value the queue element would hold.
    """
    nm1 = N - 1.0
    q = queue  # the queue ``res`` was computed from; None = x * prev
    res = [a * (1.0 + (b * nm1) / N) for a, b in zip(qd, q)]
    for it in range(start_it, max_iter + 1):
        if mult is None:
            total = z + _add_reduce(res)
        else:
            total = z + _add_reduce([r * m for r, m in zip(res, mult)])
        x_new = N / total if total > 0 else math.inf
        if abs(x_new - x) <= tol * max(x_new, 1e-12):
            if q is None:
                q = [x * r for r in prev]
            q_new = [x_new * r for r in res]
            for a, b in zip(q_new, q):
                if not abs(a - b) <= tol * max(a, 1e-9):
                    break
            else:
                return x_new, q_new, it, True
        x, prev, q = x_new, res, None
        res = [a * (1.0 + ((x * r) * nm1) / N) for a, r in zip(qd, prev)]
    if q is None:
        q = [x * r for r in prev]
    return x, q, max_iter, False


def _warn_unconverged(population: int, n: int, max_iter: int) -> None:
    # stacklevel 4: past this helper, the kernel and solve_mva_batch.
    warnings.warn(
        f"MVA fixed point did not converge within {max_iter} "
        f"iterations (N={population}, {n} stations); "
        f"returning the last iterate",
        RuntimeWarning,
        stacklevel=4,
    )


def _solve_rows(
    networks: Sequence[MvaNetwork],
    tol: float,
    max_iter: int,
) -> list[MvaResult]:
    """Schweitzer row kernel: solve each network alone in scalar python.

    The setup and output expressions are those of
    :func:`_solve_batch_group` (and of :func:`solve_mva`) written per
    element, and the fixed point is :func:`_schweitzer_iterate`, so every
    field is bit-identical to both.  A few rows of a dozen stations
    solve several times faster this way than through numpy calls on
    tiny arrays.
    """
    results = []
    for net in networks:
        stations = net.stations
        n = len(stations)
        demand, servers, mult, qd, s_delay = _row_inputs(stations)
        weighted = any(m != 1.0 for m in mult)  # repro: noqa[RPL004]
        N = float(net.population)
        extra = net.extra_delay
        if weighted:
            z = (net.think_time + extra) + _add_reduce(
                [d * m for d, m in zip(s_delay, mult)]
            )
            n_eff = _add_reduce(mult)
        else:
            z = (net.think_time + extra) + _add_reduce(s_delay)
            n_eff = float(n)
        x, queue, iters, converged = _schweitzer_iterate(
            qd, mult if weighted else None, N, z, 0.0, [N / n_eff * 0.5] * n,
            1, tol, max_iter,
        )
        if not converged:
            _warn_unconverged(net.population, n, max_iter)
        nm1 = N - 1.0
        residence = [
            a * (1.0 + (q * nm1) / N) + d for a, q, d in zip(qd, queue, s_delay)
        ]
        if weighted:
            resp = _add_reduce([r * m for r, m in zip(residence, mult)]) + extra
        else:
            resp = _add_reduce(residence) + extra
        names = [s.name for s in stations]
        utilization = [(x * d) / m for d, m in zip(demand, servers)]
        results.append(
            MvaResult(
                throughput=x,
                response_time=resp,
                residence=dict(zip(names, residence)),
                queue={
                    name: q + x * d
                    for name, q, d in zip(names, queue, s_delay)
                },
                # ``1.0 if u > 1.0 else u`` is np.minimum(u, 1.0), NaN too.
                utilization={
                    name: 1.0 if u > 1.0 else u
                    for name, u in zip(names, utilization)
                },
                iterations=iters,
                converged=converged,
            )
        )
    return results


def _solve_batch_group(
    networks: Sequence[MvaNetwork],
    tol: float,
    max_iter: int,
) -> list[MvaResult]:
    """Vectorized Schweitzer fixed point for networks of equal station count.

    Every row executes exactly the scalar solver's floating-point
    operations (same operation order, same dtype), with converged rows
    frozen by masking, so each row's result is bit-identical to
    :func:`solve_mva` on that network alone.  The iteration body writes
    into preallocated ping-pong buffers (``out=`` ufunc calls): same
    operations, no per-iteration allocations.
    """
    B = len(networks)
    n = len(networks[0].stations)
    demand = np.array(
        [[s.demand for s in net.stations] for net in networks], dtype=float
    )
    servers = np.array(
        [[s.servers for s in net.stations] for net in networks], dtype=float
    )
    mult = np.array(
        [[s.multiplicity for s in net.stations] for net in networks],
        dtype=float,
    )
    # Integer multiplicities are stored exactly; equality IS the test.
    weighted = bool((mult != 1.0).any())  # repro: noqa[RPL004]
    q_demand = demand / servers
    s_delay = demand * (servers - 1.0) / servers
    N = np.array([float(net.population) for net in networks])
    extra = np.array([net.extra_delay for net in networks])
    if weighted:
        z = (
            np.array([net.think_time for net in networks]) + extra
        ) + (s_delay * mult).sum(axis=1)
        n_eff = mult.sum(axis=1)
    else:
        z = (
            np.array([net.think_time for net in networks]) + extra
        ) + s_delay.sum(axis=1)
        n_eff = float(max(n, 1))

    # Final per-row state, filled in as rows converge.
    queue = np.empty((B, n))
    queue[:] = (N / n_eff * 0.5)[:, None]
    x = np.zeros(B)
    active = np.ones(B, dtype=bool)
    iters = np.zeros(B, dtype=int)

    # Working copies holding only the still-active rows; converged rows are
    # compacted away so laggards don't drag the whole batch along.  Row
    # slicing keeps every element's operation sequence identical to the
    # scalar solver, so compaction cannot perturb results.
    idx = np.arange(B)
    w_qd, w_N, w_z = q_demand, N, z
    w_mult = mult if weighted else None
    w_queue, w_x = queue.copy(), x.copy()
    # Loop invariants, rebuilt only when compaction changes the row set.
    # ``(Ncol - 1.0)`` hoisted out of the loop is the same value it was
    # inside it, so per-element arithmetic (and bit-identity with the
    # scalar solver) is untouched.
    w_Ncol = w_N[:, None]
    w_Nm1 = w_Ncol - 1.0
    # ``total`` >= z element-wise (residence is non-negative), so when every
    # row has positive delay the guarded division can never hit 0 and the
    # compare/select pair is dead weight; np.where(total > 0, a, inf) == a.
    guard_div = not bool((w_z > 0).all())
    # Ping-pong/scratch buffers for the iteration body, rebuilt on
    # compaction.  ``scratch`` receives the new residence/queue, ``w_x2``
    # the new throughput; the roles swap each iteration.
    scratch = np.empty_like(w_queue)
    qtest = np.empty_like(w_queue)
    qthr = np.empty_like(w_queue)
    w_x2 = np.empty_like(w_x)
    total = np.empty_like(w_x)
    xdiff = np.empty_like(w_x)
    xthr = np.empty_like(w_x)
    wscratch = np.empty_like(w_queue) if weighted else None
    finished_rows = False
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if len(idx) <= _ROW_KERNEL_MAX:
                # The straggler tail: so few rows that array-call overhead
                # dominates; the row loop continues each from its state.
                for pos, row in enumerate(idx.tolist()):
                    x[row], q_row, iters[row], done = _schweitzer_iterate(
                        w_qd[pos].tolist(),
                        None if w_mult is None else w_mult[pos].tolist(),
                        float(w_N[pos]), float(w_z[pos]), float(w_x[pos]),
                        w_queue[pos].tolist(), it, tol, max_iter,
                    )
                    queue[row] = q_row
                    active[row] = not done
                finished_rows = True
                break
            # residence = w_qd * (1.0 + (w_queue * w_Nm1) / w_Ncol)
            np.multiply(w_queue, w_Nm1, out=scratch)
            np.divide(scratch, w_Ncol, out=scratch)
            np.add(scratch, 1.0, out=scratch)
            np.multiply(scratch, w_qd, out=scratch)
            # total = w_z + (residence · multiplicity).sum(axis=1)
            if weighted:
                np.multiply(scratch, w_mult, out=wscratch)
                wscratch.sum(axis=1, out=total)
            else:
                scratch.sum(axis=1, out=total)
            np.add(total, w_z, out=total)
            if guard_div:
                x_new = np.where(total > 0, w_N / total, np.inf)
                w_x2[:] = x_new
            else:
                np.divide(w_N, total, out=w_x2)
            # queue_new = x_new[:, None] * residence (in place over scratch)
            np.multiply(scratch, w_x2[:, None], out=scratch)
            # Throughput test first; the (more expensive) queue test only
            # runs for iterations where some row is actually a candidate.
            np.subtract(w_x2, w_x, out=xdiff)
            np.abs(xdiff, out=xdiff)
            np.maximum(w_x2, 1e-12, out=xthr)
            np.multiply(xthr, tol, out=xthr)
            conv = xdiff <= xthr
            any_conv = bool(conv.any())
            if any_conv:
                np.subtract(scratch, w_queue, out=qtest)
                np.abs(qtest, out=qtest)
                np.maximum(scratch, 1e-9, out=qthr)
                np.multiply(qthr, tol, out=qthr)
                conv &= (qtest <= qthr).all(axis=1)
                any_conv = bool(conv.any())
            w_x, w_x2 = w_x2, w_x
            w_queue, scratch = scratch, w_queue
            if any_conv:
                done = idx[conv]
                x[done] = w_x[conv]
                queue[done] = w_queue[conv]
                iters[done] = it
                active[done] = False
                keep = ~conv
                if not keep.any():
                    break
                idx = idx[keep]
                w_qd, w_N, w_z = w_qd[keep], w_N[keep], w_z[keep]
                w_x, w_queue = w_x[keep], w_queue[keep]
                if weighted:
                    w_mult = w_mult[keep]
                    wscratch = np.empty_like(w_queue)
                w_Ncol = w_N[:, None]
                w_Nm1 = w_Ncol - 1.0
                scratch = np.empty_like(w_queue)
                qtest = np.empty_like(w_queue)
                qthr = np.empty_like(w_queue)
                w_x2 = np.empty_like(w_x)
                total = np.empty_like(w_x)
                xdiff = np.empty_like(w_x)
                xthr = np.empty_like(w_x)
    if active.any():
        if not finished_rows:
            x[idx] = w_x
            queue[idx] = w_queue
            iters[idx] = max_iter
        for i in np.nonzero(active)[0]:
            _warn_unconverged(networks[i].population, n, max_iter)

    residence = (
        q_demand * (1.0 + queue * (N[:, None] - 1.0) / N[:, None]) + s_delay
    )
    utilization = np.minimum(x[:, None] * demand / servers, 1.0)
    if weighted:
        resp = (residence * mult).sum(axis=1) + extra
    else:
        resp = residence.sum(axis=1) + extra
    out_queue = queue + x[:, None] * s_delay
    results = []
    for i, net in enumerate(networks):
        results.append(
            MvaResult(
                throughput=float(x[i]),
                response_time=float(resp[i]),
                residence={
                    s.name: float(r)
                    for s, r in zip(net.stations, residence[i])
                },
                queue={
                    s.name: float(q)
                    for s, q in zip(net.stations, out_queue[i])
                },
                utilization={
                    s.name: float(u)
                    for s, u in zip(net.stations, utilization[i])
                },
                iterations=int(iters[i]),
                converged=not bool(active[i]),
            )
        )
    return results


def solve_mva_batch(
    networks: Sequence[MvaNetwork],
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> list[MvaResult]:
    """Solve B independent closed networks in one vectorized fixed point.

    Networks are grouped by ``(method, station count)`` and each group is
    solved with the stations stacked on a batch axis; a per-row
    convergence mask freezes rows that have met the tolerance while the
    rest keep iterating.  A group of at most ``_ROW_KERNEL_MAX`` rows
    runs the scalar-python row kernel instead, row by row.  Rows
    requesting ``method="fluid"`` run the population-independent kernels
    of :mod:`repro.model.fluid` — a batch may mix exact and fluid rows
    freely.  Results are returned in submission order and are
    bit-identical to calling :func:`solve_mva` (or
    :func:`repro.model.fluid.solve_mva_fluid`) on each network alone
    (grouping avoids padding, which would perturb the pairwise summation
    order within a row).
    """
    # Deferred to dodge the module cycle (fluid builds MvaNetwork rows).
    from repro.model.fluid import _solve_fluid_group, _solve_fluid_rows

    results: list[MvaResult | None] = [None] * len(networks)
    groups: dict[tuple[str, int], list[int]] = {}
    for i, net in enumerate(networks):
        n = len(net.stations)
        if n == 0:
            total_delay = net.think_time + net.extra_delay
            x = (
                net.population / total_delay
                if total_delay > 0
                else float("inf")
            )
            results[i] = MvaResult(x, net.extra_delay, {}, {}, {}, 0)
        else:
            groups.setdefault((net.method, n), []).append(i)
    for (method, _), indices in groups.items():
        rows = [networks[i] for i in indices]
        if method == "fluid":
            if len(rows) <= _ROW_KERNEL_MAX:
                solved = _solve_fluid_rows(rows)
            else:
                solved = _solve_fluid_group(rows)
        elif len(rows) <= _ROW_KERNEL_MAX:
            solved = _solve_rows(rows, tol, max_iter)
        else:
            solved = _solve_batch_group(rows, tol, max_iter)
        for i, result in zip(indices, solved):
            results[i] = result
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def solve_mva_exact(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
) -> MvaResult:
    """Exact MVA (Reiser–Lavenberg population recursion).

    Only valid for single-server stations (``servers == 1``); it exists as
    the ground-truth reference the Schweitzer approximation is tested
    against, and for small models where exactness is cheap (O(N·K)).
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if think_time < 0 or extra_delay < 0:
        raise ValueError("delays must be non-negative")
    for s in stations:
        if s.servers != 1:
            raise ValueError(
                f"exact MVA supports single-server stations only; "
                f"{s.name!r} has {s.servers}"
            )
        if s.multiplicity != 1:
            raise ValueError(
                f"exact MVA does not support aggregated stations; "
                f"expand {s.name!r} (multiplicity {s.multiplicity}) into "
                f"explicit replicas"
            )
    demand = np.array([s.demand for s in stations], dtype=float)
    z = think_time + extra_delay
    queue = np.zeros(len(stations))
    x = 0.0
    residence = demand.copy()
    for n in range(1, population + 1):
        residence = demand * (1.0 + queue)
        total = z + float(residence.sum())
        x = n / total if total > 0 else float("inf")
        queue = x * residence
    utilization = np.minimum(x * demand, 1.0)
    return MvaResult(
        throughput=float(x),
        response_time=float(residence.sum()) + extra_delay,
        residence={s.name: float(r) for s, r in zip(stations, residence)},
        queue={s.name: float(q) for s, q in zip(stations, queue)},
        utilization={s.name: float(u) for s, u in zip(stations, utilization)},
        iterations=population,
    )
