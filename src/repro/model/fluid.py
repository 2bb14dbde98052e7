"""Fluid / mean-field solver for the closed EB population at large N.

Exact MVA is O(N·K) per solve and even Schweitzer's fixed point needs
hundreds of iterations near saturation — at N = 10^6 emulated browsers
neither is the right tool.  The fluid limit of the closed network is: a
single throughput ``X`` such that the population held in think, in
Seidmann delays, and in every station's open-queue backlog adds back up
to ``N``::

    N(X) = X·Z + Σ_i  m_i · ρ_i / (1 − ρ_i),     ρ_i = X · D_i

where ``D_i`` is the per-visit queueing demand of station ``i`` (after
the Seidmann split) and ``m_i`` its multiplicity (how many identical
replicas the station represents — see ``Station.multiplicity``).
``N(X)`` is strictly increasing on ``[0, 1/max D_i)`` and sweeps
``[0, ∞)``, so the population-conservation equation has exactly one
root; :func:`solve_mva_fluid` finds it by bisection.  The cost is
O(iterations × stations) with a *fixed* iteration count — independent
of ``N`` — and as ``N → ∞`` the solution lands exactly on the
asymptotic bottleneck regime ``X → 1/max D_i`` with all excess
population queued at the bottleneck.

Two kernels run the bisection.  The vectorized one
(:func:`_solve_fluid_group`) bisects every row of a group at once with
per-row freezing; the row kernel (:func:`_solve_fluid_rows`) bisects one
row at a time in scalar python, and serves the scalar entry point and
small groups of :func:`repro.model.mva.solve_mva_batch`.  Both perform
the same binary64 operations in the same order, row sums included, so
their results are bit-identical; ``tests/test_model_fluid.py`` checks
that on randomized rows.

References: Chen & Yao, *Fundamentals of Queueing Networks* (fluid
limits); Reiser & Lavenberg (the exact recursion this approximates).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.model.mva import (
    MvaNetwork,
    MvaResult,
    Station,
    _add_reduce,
    _row_inputs,
)

__all__ = ["solve_mva_fluid", "FLUID_TOL", "FLUID_MAX_ITER"]

#: Relative width of the bisection bracket at which a row is frozen.
FLUID_TOL = 1e-13
#: Bisection steps; 2^-60 already clears FLUID_TOL, the rest is slack.
FLUID_MAX_ITER = 200

#: Bottleneck utilization is bracketed inside ``[0, 1 - _RHO_GUARD]`` so
#: the queue formula ``ρ/(1-ρ)`` stays finite: the implied queue bound of
#: ~1/_RHO_GUARD caps the populations the bracket can absorb at ~1e12
#: customers per station — far above any plausible N.
_RHO_GUARD = 1e-12


def _solve_fluid_group(networks: Sequence[MvaNetwork]) -> list[MvaResult]:
    """Vectorized fluid solve for networks of equal station count.

    Each row runs an independent bisection on its bottleneck utilization
    ``u = X · max D_i``; rows whose bracket has collapsed below
    :data:`FLUID_TOL` are frozen (their bracket stops moving), so a row's
    result does not depend on what else shares the batch.
    """
    B = len(networks)
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
    # Seidmann split, exactly as the Schweitzer solver performs it.
    q_demand = demand / servers
    s_delay = demand * (servers - 1.0) / servers
    N = np.array([float(net.population) for net in networks])
    extra = np.array([net.extra_delay for net in networks])
    z = (
        np.array([net.think_time for net in networks]) + extra
    ) + (s_delay * mult).sum(axis=1)

    d_max = q_demand.max(axis=1)
    x = np.zeros(B)
    iters = np.zeros(B, dtype=int)

    # Rows with no queueing demand anywhere are pure delay systems.
    queued = d_max > 0.0
    with np.errstate(divide="ignore"):
        x[~queued] = np.where(
            z[~queued] > 0.0, N[~queued] / z[~queued], np.inf
        )

    if bool(queued.any()):
        idx = np.nonzero(queued)[0]
        w_qd = q_demand[idx]
        w_mult = mult[idx]
        w_N = N[idx]
        w_z = z[idx]
        w_xmax = (1.0 - _RHO_GUARD) / d_max[idx]
        lo = np.zeros(len(idx))
        hi = w_xmax.copy()
        active = np.ones(len(idx), dtype=bool)
        w_iters = np.full(len(idx), FLUID_MAX_ITER, dtype=int)
        rho = np.empty_like(w_qd)
        for it in range(1, FLUID_MAX_ITER + 1):
            mid = 0.5 * (lo + hi)
            # pop(mid) = mid·z + Σ_i m_i · ρ_i/(1-ρ_i)
            np.multiply(w_qd, mid[:, None], out=rho)
            np.divide(rho, 1.0 - rho, out=rho)
            np.multiply(rho, w_mult, out=rho)
            pop = mid * w_z + rho.sum(axis=1)
            over = pop >= w_N
            # Freeze converged rows: their bracket no longer moves.
            move = active
            hi = np.where(move & over, mid, hi)
            lo = np.where(move & ~over, mid, lo)
            still = (hi - lo) > FLUID_TOL * np.maximum(hi, 1e-12)
            frozen = active & ~still
            if bool(frozen.any()):
                w_iters[frozen] = it
            active &= still
            if not bool(active.any()):
                break
        x[idx] = 0.5 * (lo + hi)
        iters[idx] = w_iters

    # Per-station outputs from the fluid root, mirroring solve_mva's
    # conventions (queue includes the Seidmann-delay population X·s_delay;
    # response sums per-replica residence weighted by multiplicity).
    with np.errstate(divide="ignore", invalid="ignore"):
        rho_all = np.clip(x[:, None] * q_demand, 0.0, 1.0 - _RHO_GUARD)
        queue = rho_all / (1.0 - rho_all)
        residence = q_demand / (1.0 - rho_all) + s_delay
        residence = np.where(q_demand > 0.0, residence, s_delay)
        queue = np.where(q_demand > 0.0, queue, 0.0)
        utilization = np.minimum(x[:, None] * demand / servers, 1.0)
        resp = (residence * mult).sum(axis=1) + extra
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
                converged=True,
            )
        )
    return results


def _solve_fluid_rows(networks: Sequence[MvaNetwork]) -> list[MvaResult]:
    """Fluid row kernel: bisect each network alone in scalar python.

    Runs the binary64 operations of :func:`_solve_fluid_group` for one
    row in the same order (the row sum through
    :func:`repro.model.mva._add_reduce`), so every field is bit-identical
    to the vectorized kernel.  Only the branch ``np.where`` keeps is
    computed, and a pure-delay row with no delay gets the ``inf``
    throughput numpy's division gives it.
    """
    rho_max = 1.0 - _RHO_GUARD
    results = []
    for net in networks:
        stations = net.stations
        demand, servers, mult, qd, s_delay = _row_inputs(stations)
        N = float(net.population)
        extra = net.extra_delay
        z = (net.think_time + extra) + _add_reduce(
            [d * m for d, m in zip(s_delay, mult)]
        )
        d_max = max(qd)
        if d_max > 0.0:
            lo, hi = 0.0, rho_max / d_max
            iters = FLUID_MAX_ITER
            for it in range(1, FLUID_MAX_ITER + 1):
                mid = 0.5 * (lo + hi)
                # pop(mid) = mid·z + Σ_i m_i · ρ_i/(1-ρ_i)
                pop = mid * z + _add_reduce(
                    [(r := d * mid) / (1.0 - r) * m for d, m in zip(qd, mult)]
                )
                if pop >= N:
                    hi = mid
                else:
                    lo = mid
                if not (hi - lo) > FLUID_TOL * max(hi, 1e-12):
                    iters = it
                    break
            x = 0.5 * (lo + hi)
        else:
            iters = 0
            x = N / z if z > 0.0 else math.inf
        residence = []
        queue = []
        for d, sd in zip(qd, s_delay):
            if d > 0.0:
                # np.clip's upper bound; its lower bound 0.0 cannot bind
                # here, since x >= 0 and d > 0.
                rho = x * d
                if rho > rho_max:
                    rho = rho_max
                residence.append(d / (1.0 - rho) + sd)
                queue.append(rho / (1.0 - rho) + x * sd)
            else:
                residence.append(sd)
                queue.append(0.0 + x * sd)
        names = [s.name for s in stations]
        utilization = [(x * d) / m for d, m in zip(demand, servers)]
        results.append(
            MvaResult(
                throughput=x,
                response_time=_add_reduce(
                    [r * m for r, m in zip(residence, mult)]
                ) + extra,
                residence=dict(zip(names, residence)),
                queue=dict(zip(names, queue)),
                # ``1.0 if u > 1.0 else u`` is np.minimum(u, 1.0), NaN too.
                utilization={
                    name: 1.0 if u > 1.0 else u
                    for name, u in zip(names, utilization)
                },
                iterations=iters,
                converged=True,
            )
        )
    return results


def solve_mva_fluid(
    stations: Sequence[Station],
    population: int,
    think_time: float,
    extra_delay: float = 0.0,
) -> MvaResult:
    """Solve the closed network in the fluid limit (O(stations), any N).

    Accepts exactly the inputs of :func:`repro.model.mva.solve_mva` and
    returns the same result shape; per-solve cost does not depend on
    ``population``.  Accuracy improves with N — at small populations the
    open-queue backlog formula overstates queueing, so callers wanting
    small-N fidelity should keep using the Schweitzer solver (the
    :class:`repro.model.analytic.AnalyticBackend` ``approximation="auto"``
    policy switches between them on a population threshold).
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if think_time < 0 or extra_delay < 0:
        raise ValueError("delays must be non-negative")
    if len(stations) == 0:
        total_delay = think_time + extra_delay
        x = population / total_delay if total_delay > 0 else float("inf")
        return MvaResult(x, extra_delay, {}, {}, {}, 0)
    net = MvaNetwork(
        tuple(stations), population, think_time, extra_delay, method="fluid"
    )
    return _solve_fluid_rows([net])[0]
