"""Fluid / mean-field solver for the closed EB population at large N.

The fluid limit of the closed network is a single throughput ``X`` such
that the population held in think, in Seidmann delays, and in every
station's open-queue backlog adds back up to ``N``::

    N(X) = X·Z + Σ_i  m_i · ρ_i / (1 − ρ_i),     ρ_i = X · D_i

where ``D_i`` is the per-visit queueing demand of station ``i`` (after
the Seidmann split) and ``m_i`` its multiplicity (how many identical
replicas the station represents — see ``Station.multiplicity``).
``N(X)`` is strictly increasing on ``[0, 1/max D_i)`` and sweeps
``[0, ∞)``, so the population-conservation equation has exactly one
root.  It is the Schweitzer equation of :mod:`repro.model.mva` with
``c = 1`` in place of ``(N − 1)/N``, and the same root kernel solves
both: a ``method="fluid"`` row of :func:`repro.model.mva.solve_mva_batch`
takes a few Newton steps at any ``N``, and as ``N → ∞`` the solution
lands on the asymptotic bottleneck regime ``X → 1/max D_i`` with all
excess population queued at the bottleneck, conserving the population
to rounding.

References: Chen & Yao, *Fundamentals of Queueing Networks* (fluid
limits); Reiser & Lavenberg (the exact recursion this approximates).
"""

from __future__ import annotations

from typing import Sequence

from repro.model.mva import MvaNetwork, MvaResult, Station, solve_mva_batch

__all__ = ["solve_mva_fluid"]


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
    net = MvaNetwork(
        tuple(stations), population, think_time, extra_delay, method="fluid"
    )
    return solve_mva_batch([net])[0]
