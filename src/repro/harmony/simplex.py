"""Integer-adapted Nelder–Mead simplex — the Adaptation Controller kernel.

The paper (§II.B) uses the Nelder–Mead simplex method [Nelder & Mead 1965]
over the k-dimensional parameter space, adapted in two ways:

* the objective is only defined at integer grid points, so every candidate
  vertex is projected to "the nearest integer point in the space" before
  evaluation;
* the objective is a *measured* performance number, so evaluations are noisy
  and the algorithm must be driven one evaluation at a time.

This implementation therefore exposes an **ask/tell** interface: call
:meth:`ask` for the next configuration to measure, run the system, then call
:meth:`tell` with the measured objective.  The tuner *minimizes*; callers
maximizing a performance metric (e.g. WIPS) negate it (see
:class:`repro.harmony.search.SimplexStrategy`).

The optional *extreme-value damping* implements the improvement the paper
proposes as future work in §III.A: instead of letting a reflection or
expansion jump straight to a parameter's limit, the step toward a bound is
capped to a fraction of the remaining distance, so extreme values are only
approached gradually "when performance gains warrant it".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.harmony.parameter import Configuration, ParameterSpace
from repro.util.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.harmony.constraints import ConstraintSet

__all__ = ["SimplexOptions", "NelderMeadSimplex"]


@dataclass(frozen=True)
class SimplexOptions:
    """Coefficients and behaviour switches for the simplex.

    The coefficient defaults are the classical Nelder–Mead choices.
    ``initial_scale`` sets the initial simplex size as a fraction of each
    parameter's span.  With ``damp_extremes`` enabled, a proposed step may
    cover at most ``damping_fraction`` of the remaining distance from the
    centroid to a bound in any dimension.
    """

    alpha: float = 1.0  # reflection
    gamma: float = 2.0  # expansion
    rho: float = 0.5  # contraction
    sigma: float = 0.5  # shrink
    initial_scale: float = 0.15
    damp_extremes: bool = False
    damping_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not 0 < self.rho < 1:
            raise ValueError("rho must be in (0, 1)")
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must be in (0, 1)")
        if not 0 < self.initial_scale <= 1:
            raise ValueError("initial_scale must be in (0, 1]")
        if not 0 < self.damping_fraction <= 1:
            raise ValueError("damping_fraction must be in (0, 1]")


class _Phase(enum.Enum):
    INIT = "init"  # evaluating the k+1 initial vertices
    REFLECT = "reflect"
    EXPAND = "expand"
    CONTRACT_OUT = "contract_out"
    CONTRACT_IN = "contract_in"
    SHRINK = "shrink"


class NelderMeadSimplex:
    """Ask/tell Nelder–Mead over an integer :class:`ParameterSpace`.

    Parameters
    ----------
    space:
        The search space (k dimensions).
    start:
        First vertex of the initial simplex; defaults to the space's default
        configuration — exactly how the paper starts each tuning run.
    options:
        Algorithm coefficients, see :class:`SimplexOptions`.
    rng:
        Only used to orient the initial simplex (sign of each offset), so
        restarts explore differently; pass a seeded generator for
        reproducibility.
    constraints:
        Optional feasibility constraints; every asked configuration is
        projected into the feasible region after integer rounding (the
        simplex geometry itself stays in the continuous space).
    """

    def __init__(
        self,
        space: ParameterSpace,
        start: Optional[Configuration] = None,
        options: Optional[SimplexOptions] = None,
        rng: Optional[np.random.Generator] = None,
        constraints: Optional["ConstraintSet"] = None,
    ) -> None:
        if space.dimension == 0:
            raise ValueError("cannot tune an empty parameter space")
        self.space = space
        self.options = options or SimplexOptions()
        self.constraints = constraints
        self._rng = rng if rng is not None else spawn_rng(0, "harmony.simplex")
        start_cfg = start or space.default_configuration()
        space.validate(start_cfg)
        if constraints is not None and not constraints.satisfied(start_cfg):
            start_cfg = constraints.repair(space, start_cfg)

        self._vertices: list[np.ndarray] = []  # continuous coordinates
        self._values: list[float] = []
        self._pending: Optional[np.ndarray] = None
        self._pending_cfg: Optional[Configuration] = None
        self._phase = _Phase.INIT
        self._init_queue = self._initial_vertices(start_cfg)
        self._reflected: Optional[tuple[np.ndarray, float]] = None
        self._shrink_queue: list[np.ndarray] = []
        self._shrink_collected: list[tuple[np.ndarray, float]] = []
        self._best: Optional[tuple[Configuration, float]] = None
        self._evaluations = 0

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of tuned dimensions (k)."""
        return self.space.dimension

    @property
    def evaluations(self) -> int:
        """Number of completed tell() calls."""
        return self._evaluations

    @property
    def in_initial_exploration(self) -> bool:
        """True while the first k+1 vertices are still being evaluated.

        The paper notes tuning n parameters "requires exploring n+1
        configurations before improvements to the system will take effect".
        """
        return self._phase is _Phase.INIT

    @property
    def best(self) -> Optional[tuple[Configuration, float]]:
        """Best (configuration, objective) seen so far, if any."""
        return self._best

    def ask(self) -> Configuration:
        """Return the next configuration to evaluate.

        Repeated calls without an intervening :meth:`tell` return the same
        configuration.
        """
        if self._pending_cfg is not None:
            return self._pending_cfg
        vector = self._next_vector()
        self._pending = vector
        self._pending_cfg = self._to_configuration(vector)
        return self._pending_cfg

    def _to_configuration(self, vector: np.ndarray) -> Configuration:
        """Project a continuous vertex to the asked integer configuration."""
        cfg = self.space.from_vector(vector)
        if self.constraints is not None and not self.constraints.satisfied(cfg):
            cfg = self.constraints.repair(self.space, cfg)
        return cfg

    def speculative_frontier(self) -> list[Configuration]:
        """The asks the state machine makes whatever the pending value.

        An ordered forecast: entry *k* is exactly the ask *k* steps
        ahead.  With nothing pending it is the single next ask.  During
        the INIT or SHRINK vertex sweep it is the unfinished tail of the
        queue, which is asked regardless of measured values.  At a
        branching phase (reflect, expand, contract) every next ask
        depends on the pending value, so it is empty.  Reading only: the
        simplex state is not touched, so speculation cannot perturb the
        serial trajectory.
        """
        if self._pending is None:
            vectors = [self._next_vector()]
        elif self._phase is _Phase.INIT:
            vectors = self._init_queue[len(self._vertices) + 1 :]
        elif self._phase is _Phase.SHRINK:
            vectors = self._shrink_queue[len(self._shrink_collected) + 1 :]
        else:
            vectors = []
        seen: set[Configuration] = set()
        out: list[Configuration] = []
        for vector in vectors:
            cfg = self._to_configuration(vector)
            if cfg not in seen:
                seen.add(cfg)
                out.append(cfg)
        return out

    def tell(self, config: Configuration, value: float) -> None:
        """Report the measured objective for the configuration from ask()."""
        if self._pending_cfg is None:
            raise RuntimeError("tell() without a pending ask()")
        if config != self._pending_cfg:
            raise ValueError(
                f"tell() for {config!r}, but pending is {self._pending_cfg!r}"
            )
        if not np.isfinite(value):
            # A failed measurement (crash, rejection storm) is treated as the
            # worst possible point so the simplex moves away from it.
            value = float("inf")
        vector = self._pending
        assert vector is not None
        self._pending = None
        self._pending_cfg = None
        self._evaluations += 1
        if self._best is None or value < self._best[1]:
            self._best = (config, value)
        self._absorb(vector, float(value))

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _initial_vertices(self, start: Configuration) -> list[np.ndarray]:
        """Start vertex plus one offset vertex per dimension."""
        x0 = self.space.to_vector(start)
        lo = self.space.lower_bounds()
        hi = self.space.upper_bounds()
        queue = [x0]
        for i, param in enumerate(self.space.parameters):
            offset = max(param.step, self.options.initial_scale * param.span)
            direction = 1.0 if self._rng.random() < 0.5 else -1.0
            x = x0.copy()
            x[i] = x0[i] + direction * offset
            if not lo[i] <= x[i] <= hi[i]:
                x[i] = x0[i] - direction * offset
            x[i] = min(max(x[i], lo[i]), hi[i])
            if x[i] == x0[i] and param.span > 0:
                # degenerate (offset collapsed onto x0): nudge one step
                x[i] = x0[i] + param.step if x0[i] + param.step <= hi[i] else x0[i] - param.step
            queue.append(x)
        return queue

    def _clip(self, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, self.space.lower_bounds()),
                          self.space.upper_bounds())

    def _damp(self, origin: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Cap movement toward bounds (paper's proposed future-work fix)."""
        if not self.options.damp_extremes:
            return target
        lo = self.space.lower_bounds()
        hi = self.space.upper_bounds()
        frac = self.options.damping_fraction
        out = target.copy()
        for i in range(len(out)):
            if target[i] > origin[i]:
                limit = origin[i] + frac * (hi[i] - origin[i])
                out[i] = min(target[i], limit)
            elif target[i] < origin[i]:
                limit = origin[i] - frac * (origin[i] - lo[i])
                out[i] = max(target[i], limit)
        return out

    def _order(self) -> None:
        idx = np.argsort(self._values, kind="stable")
        self._vertices = [self._vertices[i] for i in idx]
        self._values = [self._values[i] for i in idx]

    def _centroid(self) -> np.ndarray:
        """Centroid of all vertices except the worst."""
        return np.mean(np.asarray(self._vertices[:-1]), axis=0)

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _next_vector(self) -> np.ndarray:
        opt = self.options
        if self._phase is _Phase.INIT:
            return self._init_queue[len(self._vertices)]
        if self._phase is _Phase.SHRINK:
            return self._shrink_queue[len(self._shrink_collected)]

        centroid = self._centroid()
        worst = self._vertices[-1]
        if self._phase is _Phase.REFLECT:
            target = centroid + opt.alpha * (centroid - worst)
            return self._clip(self._damp(centroid, target))
        if self._phase is _Phase.EXPAND:
            assert self._reflected is not None
            target = centroid + opt.gamma * (self._reflected[0] - centroid)
            return self._clip(self._damp(centroid, target))
        if self._phase is _Phase.CONTRACT_OUT:
            assert self._reflected is not None
            return self._clip(centroid + opt.rho * (self._reflected[0] - centroid))
        if self._phase is _Phase.CONTRACT_IN:
            return self._clip(centroid - opt.rho * (centroid - worst))
        raise AssertionError(f"unhandled phase {self._phase}")

    def _absorb(self, vector: np.ndarray, value: float) -> None:
        if self._phase is _Phase.INIT:
            self._vertices.append(vector)
            self._values.append(value)
            if len(self._vertices) == self.dimension + 1:
                self._order()
                self._phase = _Phase.REFLECT
            return

        if self._phase is _Phase.SHRINK:
            self._shrink_collected.append((vector, value))
            if len(self._shrink_collected) == len(self._shrink_queue):
                for i, (v, f) in enumerate(self._shrink_collected, start=1):
                    self._vertices[i] = v
                    self._values[i] = f
                self._shrink_queue = []
                self._shrink_collected = []
                self._order()
                self._phase = _Phase.REFLECT
            return

        best_val = self._values[0]
        second_worst = self._values[-2]
        worst_val = self._values[-1]

        if self._phase is _Phase.REFLECT:
            if value < best_val:
                self._reflected = (vector, value)
                self._phase = _Phase.EXPAND
            elif value < second_worst:
                self._replace_worst(vector, value)
                self._phase = _Phase.REFLECT
            else:
                self._reflected = (vector, value)
                self._phase = (
                    _Phase.CONTRACT_OUT if value < worst_val else _Phase.CONTRACT_IN
                )
            return

        if self._phase is _Phase.EXPAND:
            assert self._reflected is not None
            if value < self._reflected[1]:
                self._replace_worst(vector, value)
            else:
                self._replace_worst(*self._reflected)
            self._reflected = None
            self._phase = _Phase.REFLECT
            return

        if self._phase is _Phase.CONTRACT_OUT:
            assert self._reflected is not None
            if value <= self._reflected[1]:
                self._replace_worst(vector, value)
                self._reflected = None
                self._phase = _Phase.REFLECT
            else:
                self._reflected = None
                self._start_shrink()
            return

        if self._phase is _Phase.CONTRACT_IN:
            if value < worst_val:
                self._replace_worst(vector, value)
                self._reflected = None
                self._phase = _Phase.REFLECT
            else:
                self._reflected = None
                self._start_shrink()
            return

        raise AssertionError(f"unhandled phase {self._phase}")

    def _replace_worst(self, vector: np.ndarray, value: float) -> None:
        self._vertices[-1] = vector
        self._values[-1] = value
        self._order()

    def _start_shrink(self) -> None:
        best = self._vertices[0]
        sigma = self.options.sigma
        self._shrink_queue = [
            best + sigma * (v - best) for v in self._vertices[1:]
        ]
        self._shrink_collected = []
        self._phase = _Phase.SHRINK

    # ------------------------------------------------------------------
    def simplex_diameter(self) -> float:
        """Largest inter-vertex distance, normalized per-dimension.

        Useful as a convergence indicator: the simplex collapses around an
        optimum as tuning progresses.
        """
        if len(self._vertices) < 2:
            return float("inf")
        spans = np.array(
            [max(p.span, 1) for p in self.space.parameters], dtype=float
        )
        pts = np.asarray(self._vertices) / spans
        diam = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diam = max(diam, float(np.linalg.norm(pts[i] - pts[j])))
        return diam
