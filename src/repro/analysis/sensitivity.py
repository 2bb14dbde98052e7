"""One-at-a-time parameter sensitivity sweeps.

For each tunable parameter, hold every other parameter at a base
configuration, sweep the parameter across its range, and measure WIPS at
each point (averaging over noise seeds).  The resulting *effect size* —
the relative WIPS span over the sweep — separates parameters that matter
from parameters that don't, the diagnostic use of Harmony the paper
highlights in §III.A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.harmony.constraints import ConstraintSet
from repro.harmony.parameter import Configuration, ParameterSpace
from repro.model.base import PerformanceBackend, Scenario
from repro.util.rng import derive_seed
from repro.util.stats import RunningStats
from repro.util.tables import Table

__all__ = [
    "SensitivityCurve",
    "SensitivityReport",
    "sweep_parameter",
    "sensitivity_report",
]


@dataclass(frozen=True)
class SensitivityCurve:
    """One parameter's sweep: values tried and the WIPS observed at each."""

    name: str
    values: tuple[int, ...]
    mean_wips: tuple[float, ...]
    std_wips: tuple[float, ...]
    base_wips: float

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.mean_wips) == len(self.std_wips)):
            raise ValueError("curve arrays must have equal length")
        if not self.values:
            raise ValueError("curve must contain at least one point")

    @property
    def effect_size(self) -> float:
        """Relative WIPS span across the sweep: (max − min) / base."""
        return (max(self.mean_wips) - min(self.mean_wips)) / self.base_wips

    @property
    def best_value(self) -> int:
        """The swept value with the highest mean WIPS."""
        return self.values[int(np.argmax(self.mean_wips))]

    @property
    def worst_value(self) -> int:
        """The swept value with the lowest mean WIPS."""
        return self.values[int(np.argmin(self.mean_wips))]


@dataclass(frozen=True)
class SensitivityReport:
    """All curves for one scenario, ranked by effect size."""

    scenario_label: str
    base_wips: float
    curves: tuple[SensitivityCurve, ...]

    def ranked(self) -> list[SensitivityCurve]:
        """Curves sorted by decreasing effect size."""
        return sorted(self.curves, key=lambda c: c.effect_size, reverse=True)

    def curve(self, name: str) -> SensitivityCurve:
        """The curve for one parameter."""
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(f"no sweep for parameter {name!r}")

    def to_table(self, top: Optional[int] = None) -> Table:
        """The ranked effect-size table."""
        table = Table(
            f"Parameter sensitivity — {self.scenario_label} "
            f"(base {self.base_wips:.1f} WIPS)",
            ["Parameter", "Effect size", "Best value", "Worst value"],
        )
        for curve in self.ranked()[: top or len(self.curves)]:
            table.add_row(
                curve.name,
                f"{curve.effect_size * 100:.1f}%",
                curve.best_value,
                curve.worst_value,
            )
        return table


def sweep_parameter(
    backend: PerformanceBackend,
    scenario: Scenario,
    base: Configuration,
    name: str,
    points: int = 5,
    repeats: int = 3,
    seed: int = 0,
    space: Optional[ParameterSpace] = None,
    constraints: Optional[ConstraintSet] = None,
) -> SensitivityCurve:
    """Sweep one parameter across its range around ``base``.

    ``points`` evenly spaced legal values (always including the bounds and
    the base value); each is measured ``repeats`` times on derived seeds.
    Constrained partners are repaired (e.g. sweeping ``cache_swap_low``
    above ``cache_swap_high`` adjusts the partner as a real administrator
    would).
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    space = space or scenario.cluster.full_space()
    param = space[name]
    raw = np.linspace(param.low, param.high, points)
    values = sorted({param.clamp(float(v)) for v in raw} | {base[name]})

    # Gather every (configuration, seed) point of the sweep up front and
    # measure them as one batch: backends that amortize work across points
    # (batched MVA, solution reuse between noise repeats) then see the
    # whole sweep at once.  Results come back in request order, so the
    # statistics below fold in exactly the order the per-point loop used.
    requests: list[tuple[Configuration, int]] = [
        (base, derive_seed(seed, "sweep-base", name, r))
        for r in range(repeats)
    ]
    for value in values:
        cfg = base.replace(**{name: value})
        if constraints is not None and not constraints.satisfied(cfg):
            cfg = constraints.repair(space, cfg)
            cfg = cfg.replace(**{name: value}) if param.is_legal(value) else cfg
            if not constraints.satisfied(cfg):
                cfg = constraints.repair(space, cfg)
        requests.extend(
            (cfg, derive_seed(seed, "sweep", name, value, r))
            for r in range(repeats)
        )
    measurements = iter(backend.measure_batch(scenario, requests))

    base_stats = RunningStats()
    for _ in range(repeats):
        base_stats.add(next(measurements).wips)

    means: list[float] = []
    stds: list[float] = []
    for _ in values:
        stats = RunningStats()
        for _ in range(repeats):
            stats.add(next(measurements).wips)
        means.append(stats.mean)
        stds.append(stats.stddev)

    return SensitivityCurve(
        name=name,
        values=tuple(values),
        mean_wips=tuple(means),
        std_wips=tuple(stds),
        base_wips=base_stats.mean,
    )


def sensitivity_report(
    backend: PerformanceBackend,
    scenario: Scenario,
    base: Optional[Configuration] = None,
    names: Optional[Sequence[str]] = None,
    points: int = 5,
    repeats: int = 3,
    seed: int = 0,
) -> SensitivityReport:
    """Sweep every (or the named) parameter of the scenario's cluster."""
    space = scenario.cluster.full_space()
    constraints = scenario.cluster.full_constraints()
    base = base or scenario.cluster.default_configuration()
    todo = list(names) if names is not None else space.names
    curves = []
    base_wips = None
    for name in todo:
        curve = sweep_parameter(
            backend, scenario, base, name,
            points=points, repeats=repeats, seed=seed,
            space=space, constraints=constraints,
        )
        curves.append(curve)
        base_wips = curve.base_wips
    assert base_wips is not None
    return SensitivityReport(
        scenario_label=f"{scenario.mix.name}, N={scenario.population}",
        base_wips=base_wips,
        curves=tuple(curves),
    )
