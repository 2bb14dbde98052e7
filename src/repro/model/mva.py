"""Single-class approximate Mean Value Analysis (Schweitzer) and its fluid limit.

Solves a closed queueing network with ``N`` customers, a think-time delay
``Z``, and a set of queueing stations.  Multi-server stations use Seidmann's
transformation: an *m*-server station with per-visit demand ``D`` behaves
(approximately) like a single-server station of demand ``D/m`` in series
with a pure delay of ``D·(m-1)/m``.

Schweitzer's approximation lets an arriving customer see ``(N − 1)/N`` of
each queue, ``Rᵢ = Dᵢ·(1 + c·qᵢ)`` with ``c = (N − 1)/N``; with Little's
law ``qᵢ = X·Rᵢ`` that is ``Rᵢ = Dᵢ/(1 − c·ρᵢ)``, ``ρᵢ = X·Dᵢ``, and the
whole fixed point collapses to one scalar equation in the throughput::

    N = X·Z + Σᵢ mᵢ·ρᵢ/(1 − c·ρᵢ)

(``Z`` here includes the extra delay and the Seidmann delays, ``Dᵢ`` is
the queueing demand, ``mᵢ`` the multiplicity).  Its right-hand side
rises strictly from 0 to ∞ on ``[0, 1/(c·D_max))``, so the root is
unique.  The fluid limit of :mod:`repro.model.fluid` is the same
equation with ``c = 1``.

:func:`solve_mva_batch` solves every row, of either method, with one
scalar-python kernel that finds that root by safeguarded Newton in the
bottleneck slack (:func:`_slack_root`): about five steps per row at any
``N``, and the population is conserved to rounding even at N = 10¹⁵.
Each row is solved alone, so a row's result is bit-identical whatever
else shares its call.  :func:`solve_mva` keeps the iterating fixed
point, in numpy, as the reference the kernel is tested against;
:func:`solve_mva_exact` is the exact population recursion.

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
    #: Fixed-point iterations (:func:`solve_mva`) or Newton steps
    #: (:func:`solve_mva_batch`) used.
    iterations: int
    #: Whether :func:`solve_mva` met its tolerance within ``max_iter``
    #: (the root kernel always converges).
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
    """Solve the closed network by iterating the Schweitzer fixed point.

    The reference implementation: :func:`solve_mva_batch` solves the
    same network through the root kernel, to within this iteration's
    tolerance ``tol``.

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

    ``method`` selects the population equation this row solves:
    ``"schweitzer"`` (the default, ``c = (N − 1)/N``) or ``"fluid"``
    (the mean-field limit of :mod:`repro.model.fluid`, ``c = 1``).  A
    batch may mix methods freely; every row runs the same root kernel.
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


#: Relative size of the Newton step at which :func:`_slack_root` stops.
#: Newton's error contracts quadratically, so applying a step this
#: small leaves an error of about its square, 1e-18 of the slack:
#: rounding level.  A tighter test buys no accuracy, only a step.
_STEP_TOL = 1e-9


def _slack_root(
    ratios: Sequence[float],
    weights: Sequence[float],
    k: float,
    population: float,
) -> tuple[float, int]:
    """Bottleneck slack ``s`` at the root of one row, and the steps taken.

    The population equation in the slack ``s = 1 − c·X·D_max`` reads
    ``N = (1 − s)·(k + Σᵢ aᵢ/(1 − rᵢ + rᵢ·s))`` with ``rᵢ = Dᵢ/D_max``
    (the ``ratios``), ``aᵢ = mᵢ·rᵢ/c`` (the ``weights``) and
    ``k = Z/(c·D_max)``.  Newton runs on ``g(s)``, that equation's
    excess ``f(s)`` times ``s``: the same root in ``(0, 1)``, but no pole
    at ``s = 0``, where a tied bottleneck's term ``a/s`` has one.

    The start is the balanced-job bound: with every denominator lowered
    to the bottleneck's ``s`` the equation becomes the quadratic
    ``k·s² + (N + A − k)·s − A = 0`` (``A = Σ aᵢ``), whose root is at or
    above the slack.  The sign of ``g`` keeps a bracket ``(lo, hi)``; a
    step that leaves it is replaced by bisection.  Convergence is judged
    on the raw Newton step, before the bracket test: a step that rounds
    to nothing lands on a bracket end, and bisection would then take
    over for dozens of steps.
    """
    a_sum = 0.0
    for a in weights:
        a_sum += a
    b = population + a_sum - k
    root = math.sqrt(b * b + 4.0 * k * a_sum)
    # Two forms of the positive root; each avoids cancellation on its side.
    s = 2.0 * a_sum / (b + root) if b >= 0.0 else (root - b) / (2.0 * k)
    terms = [(r, 1.0 - r, a) for r, a in zip(ratios, weights)]
    lo, hi = 0.0, 1.0
    steps = 0
    while True:
        steps += 1
        w = 1.0 - 2.0 * s
        ss = s * s
        total = k
        slope = w * k - population
        for r, u, a in terms:
            den = u + r * s
            t = a / den
            total += t
            slope += t * (u * w - r * ss) / den
        g = s * (1.0 - s) * total - population * s
        if g > 0.0:
            lo = s
        elif g < 0.0:
            hi = s
        else:  # the exact root (or NaN input): nothing left to refine
            return s, steps
        if slope < 0.0:
            step = g / slope
            if abs(step) <= _STEP_TOL * s:
                return s - step, steps
            s -= step
            if lo < s < hi:
                continue
        s = 0.5 * (lo + hi)
        if hi - lo <= _STEP_TOL * s:
            return s, steps


def _solve_row(net: MvaNetwork) -> MvaResult:
    """Solve one network of either method through the root kernel.

    ``c`` is ``(N − 1)/N`` for ``"schweitzer"`` and 1 for ``"fluid"``.
    With ``c·D_max = 0`` (N = 1, or no queueing demand) the equation is
    linear and ``X = N/(Z + Σ mᵢ·Dᵢ)``.  Otherwise :func:`_slack_root`
    gives the slack, and with it every ``1 − c·ρᵢ = (1 − rᵢ) + rᵢ·s``
    without cancellation.  The fields follow from those denominators:
    residence ``Rᵢ = Dᵢ/(1 − c·ρᵢ)`` plus the Seidmann delay, throughput
    ``X = N/(think + response)`` and queue ``X·Rᵢ`` (Little's law), so
    the population is conserved to rounding at any N, and utilization
    ``min(X·D/servers, 1)``.  ``iterations`` counts Newton steps.
    """
    stations = net.stations
    population = float(net.population)
    c = 1.0 if net.method == "fluid" else (population - 1.0) / population
    extra = net.extra_delay
    names = [st.name for st in stations]
    demand = [float(st.demand) for st in stations]
    servers = [float(st.servers) for st in stations]
    mult = [float(st.multiplicity) for st in stations]
    # Seidmann: queueing part D/m, delay part D·(m−1)/m.
    qd = [d / m for d, m in zip(demand, servers)]
    s_delay = [d * (m - 1.0) / m for d, m in zip(demand, servers)]
    z = net.think_time + extra
    for m, d in zip(mult, s_delay):
        z += m * d
    d_max = max(qd, default=0.0)
    cd = c * d_max
    steps = 0
    if cd > 0.0:
        ratios = [d / d_max for d in qd]
        s, steps = _slack_root(
            ratios,
            [m * r / c for m, r in zip(mult, ratios)],
            z / cd,
            population,
        )
        q_res = [d / ((1.0 - r) + r * s) for d, r in zip(qd, ratios)]
    else:
        q_res = qd
    total = z
    for m, r in zip(mult, q_res):
        total += m * r
    x = population / total if total > 0.0 else math.inf
    residence = [r + d for r, d in zip(q_res, s_delay)]
    response = 0.0
    for m, r in zip(mult, residence):
        response += m * r
    utilization = [(x * d) / m for d, m in zip(demand, servers)]
    return MvaResult(
        throughput=x,
        response_time=response + extra,
        residence=dict(zip(names, residence)),
        queue={name: x * r for name, r in zip(names, residence)},
        # ``1.0 if u > 1.0 else u`` keeps a NaN, as np.minimum does.
        utilization={
            name: 1.0 if u > 1.0 else u
            for name, u in zip(names, utilization)
        },
        iterations=steps,
    )


def solve_mva_batch(networks: Sequence[MvaNetwork]) -> list[MvaResult]:
    """Solve independent closed networks, one root-kernel call per row.

    Each row, Schweitzer or fluid, is solved alone by :func:`_solve_row`,
    so its result does not depend on what else shares the call, on its
    position, or on the batch size; results come back in submission
    order.  They agree with the iterating :func:`solve_mva` to its
    tolerance, and with :func:`solve_mva` at ``tol=1e-14`` to about
    1e-12.
    """
    return [_solve_row(net) for net in networks]


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
