"""Search strategies for the Harmony server.

The paper's Adaptation Controller kernel is the simplex method
(:class:`SimplexStrategy`).  Two additional strategies — random search and
coordinate descent — serve as ablation baselines: they answer "does the
simplex kernel matter, or would any search do?" in the ablation benchmarks.

All strategies **maximize** the reported performance metric (WIPS); the
simplex kernel internally minimizes, so :class:`SimplexStrategy` negates.
"""

from __future__ import annotations

import abc
import copy
from typing import Optional

import numpy as np

from repro.harmony.constraints import ConstraintSet
from repro.harmony.parameter import Configuration, ParameterSpace
from repro.harmony.simplex import NelderMeadSimplex, SimplexOptions
from repro.util.rng import spawn_rng

__all__ = [
    "SearchStrategy",
    "SimplexStrategy",
    "RandomSearch",
    "CoordinateDescent",
]


class SearchStrategy(abc.ABC):
    """Ask/tell interface shared by all tuning kernels (maximizing)."""

    def __init__(
        self,
        space: ParameterSpace,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        self.space = space
        self.constraints = constraints
        self._best: Optional[tuple[Configuration, float]] = None
        self._evaluations = 0

    def _feasible(self, config: Configuration) -> Configuration:
        """Project a candidate into the feasible region (no-op if none)."""
        if self.constraints is None or self.constraints.satisfied(config):
            return config
        return self.constraints.repair(self.space, config)

    @property
    def evaluations(self) -> int:
        """Completed tell() calls."""
        return self._evaluations

    @property
    def best(self) -> Optional[tuple[Configuration, float]]:
        """Best (configuration, performance) observed so far."""
        return self._best

    @abc.abstractmethod
    def ask(self) -> Configuration:
        """Next configuration to measure (stable until tell())."""

    def speculate(self) -> list[Configuration]:
        """Ordered forecast of the strategy's certain next asks.

        Entry *k* is the configuration this strategy will ask *k* steps
        ahead, as far as that is determined regardless of pending
        measurement values (e.g. the tail of a fixed probe or vertex
        queue); where the next ask depends on a pending value the
        forecast ends.  The speculative layer
        (:mod:`repro.harmony.speculate`) zips the per-group forecasts
        positionally into future full configurations and warms the
        backend's deterministic caches for them in one batch per step.
        The contract is advisory only: the strategy state must not change
        and no randomness may be consumed; an unused entry is wasted
        warmth, never observable.  The default speculates nothing, which
        is always correct.
        """
        return []

    def tell(self, config: Configuration, performance: float) -> None:
        """Report measured performance (higher is better)."""
        self._evaluations += 1
        if self._best is None or performance > self._best[1]:
            self._best = (config, performance)
        self._tell(config, performance)

    @abc.abstractmethod
    def _tell(self, config: Configuration, performance: float) -> None:
        """Strategy-specific bookkeeping for one observation."""


class SimplexStrategy(SearchStrategy):
    """The paper's kernel: integer-adapted Nelder–Mead (maximizing)."""

    def __init__(
        self,
        space: ParameterSpace,
        start: Optional[Configuration] = None,
        options: Optional[SimplexOptions] = None,
        rng: Optional[np.random.Generator] = None,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        super().__init__(space, constraints)
        self._simplex = NelderMeadSimplex(
            space, start=start, options=options, rng=rng, constraints=constraints
        )

    @property
    def in_initial_exploration(self) -> bool:
        """True during the first k+1 evaluations (see paper §III.B)."""
        return self._simplex.in_initial_exploration

    @property
    def simplex(self) -> NelderMeadSimplex:
        """The underlying minimizing kernel (objective = -performance)."""
        return self._simplex

    def ask(self) -> Configuration:
        """Next configuration from the simplex kernel."""
        return self._simplex.ask()

    def speculate(self) -> list[Configuration]:
        """The certain part of the simplex's candidate tree, in ask order.

        During the value-independent stretches — the initial k+1 vertex
        sweep and the k-vertex shrink queues, the bulk of a tuning run's
        asks — every remaining queue entry is guaranteed to be asked, so
        the whole queue is returned and prefetched as one deep batch.
        """
        return self._simplex.speculative_frontier()

    def _tell(self, config: Configuration, performance: float) -> None:
        objective = -performance if np.isfinite(performance) else float("inf")
        self._simplex.tell(config, objective)


class RandomSearch(SearchStrategy):
    """Uniform random sampling baseline; first point is the default config."""

    def __init__(
        self,
        space: ParameterSpace,
        rng: Optional[np.random.Generator] = None,
        start: Optional[Configuration] = None,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        super().__init__(space, constraints)
        self._rng = rng if rng is not None else spawn_rng(0, "harmony.random")
        self._pending: Optional[Configuration] = self._feasible(
            start or space.default_configuration()
        )

    def ask(self) -> Configuration:
        """A fresh uniform sample (stable until tell())."""
        if self._pending is None:
            self._pending = self._feasible(
                self.space.random_configuration(self._rng)
            )
        return self._pending

    def speculate(self) -> list[Configuration]:
        """The exact next sample, drawn from a cloned generator.

        ``_rng`` has already advanced past any pending draw, so cloning it
        and sampling once reproduces the next ask bit-for-bit without
        consuming the real stream.
        """
        rng = copy.deepcopy(self._rng)
        return [self._feasible(self.space.random_configuration(rng))]

    def _tell(self, config: Configuration, performance: float) -> None:
        self._pending = None


class CoordinateDescent(SearchStrategy):
    """Greedy one-parameter-at-a-time hill climbing baseline.

    Cycles through the dimensions; for the current dimension it probes the
    up/down neighbours of the incumbent and moves if an improvement is
    measured.  This is the "tune each knob separately" approach the paper
    argues is insufficient for coupled systems.
    """

    def __init__(
        self,
        space: ParameterSpace,
        start: Optional[Configuration] = None,
        step_multiplier: int = 4,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        super().__init__(space, constraints)
        if step_multiplier < 1:
            raise ValueError("step_multiplier must be >= 1")
        self._incumbent = self._feasible(start or space.default_configuration())
        self._incumbent_perf: Optional[float] = None
        self._dim = 0
        self._step_multiplier = step_multiplier
        self._probes: list[Configuration] = []
        self._probe_results: list[tuple[Configuration, float]] = []
        self._pending: Optional[Configuration] = self._incumbent

    def _make_probes(self) -> None:
        param = self.space.parameters[self._dim]
        value = self._incumbent[param.name]
        delta = param.step * self._step_multiplier
        probes = []
        for candidate in (value + delta, value - delta):
            clamped = param.clamp(candidate)
            if clamped != value:
                probe = self._feasible(
                    self._incumbent.replace(**{param.name: clamped})
                )
                if probe != self._incumbent and probe not in probes:
                    probes.append(probe)
        self._probes = probes
        self._probe_results = []

    def _probes_for(
        self, incumbent: Configuration, dim: int
    ) -> list[Configuration]:
        """The probe list ask() would build for ``incumbent`` at ``dim``.

        Pure replica of :meth:`_make_probes` plus ask()'s degenerate-
        dimension skip loop — used by :meth:`speculate` so prediction and
        execution cannot drift apart.
        """
        for _ in range(self.space.dimension):
            param = self.space.parameters[dim]
            value = incumbent[param.name]
            delta = param.step * self._step_multiplier
            probes: list[Configuration] = []
            for candidate in (value + delta, value - delta):
                clamped = param.clamp(candidate)
                if clamped != value:
                    probe = self._feasible(
                        incumbent.replace(**{param.name: clamped})
                    )
                    if probe != incumbent and probe not in probes:
                        probes.append(probe)
            if probes:
                return probes
            dim = (dim + 1) % self.space.dimension
        return []

    def ask(self) -> Configuration:
        """The incumbent first, then its per-dimension probes."""
        if self._pending is not None:
            return self._pending
        if not self._probes:
            self._make_probes()
            while not self._probes:  # degenerate dimension; skip it
                self._dim = (self._dim + 1) % self.space.dimension
                self._make_probes()
        self._pending = self._probes[len(self._probe_results)]
        return self._pending

    def speculate(self) -> list[Configuration]:
        """The unmeasured tail of this dimension's probe list, in order.

        Every probe of a dimension is asked regardless of measured values
        (the move decision happens only once all are in), so the remaining
        probes are a certain forecast of the next asks.
        """
        if not self._probes:
            # Between dimensions (or before the incumbent measurement):
            # the next asks are the current dimension's full probe list.
            return self._probes_for(self._incumbent, self._dim)
        ahead = len(self._probe_results) + (1 if self._pending is not None else 0)
        return list(self._probes[ahead:])

    def _tell(self, config: Configuration, performance: float) -> None:
        self._pending = None
        if self._incumbent_perf is None and config == self._incumbent:
            self._incumbent_perf = performance
            return
        self._probe_results.append((config, performance))
        if len(self._probe_results) < len(self._probes):
            return
        # All probes for this dimension measured: move if any improved.
        best_cfg, best_perf = max(self._probe_results, key=lambda cv: cv[1])
        assert self._incumbent_perf is not None
        if best_perf > self._incumbent_perf:
            self._incumbent = best_cfg
            self._incumbent_perf = best_perf
        self._probes = []
        self._probe_results = []
        self._dim = (self._dim + 1) % self.space.dimension
