"""Tunable parameters, parameter spaces and configurations.

The paper treats "each tunable parameter as a variable in an independent
dimension" (§II.B).  A :class:`ParameterSpace` is an ordered set of
:class:`IntParameter` dimensions; a :class:`Configuration` is one legal point
(an immutable name→value mapping).  The simplex works in a continuous vector
space; :meth:`ParameterSpace.from_vector` implements the paper's adaptation
of "using the resulting values from the nearest integer point in the space".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    ItemsView,
    Iterable,
    Iterator,
    KeysView,
    Mapping,
    Optional,
    Sequence,
    ValuesView,
)

import numpy as np

__all__ = ["IntParameter", "ParameterSpace", "Configuration"]

#: Integers of smaller magnitude are exact in float64 (and so in int64).
_EXACT = 2**53
#: Value types whose float64 image the vectorised bound checks can trust.
_PLAIN_TYPES = frozenset({int, float, bool})


@dataclass(frozen=True)
class IntParameter:
    """One integer-valued tunable dimension.

    Legal values are ``low, low+step, …`` up to the largest such value not
    exceeding ``high``.  ``default`` must be legal.
    """

    name: str
    default: int
    low: int
    high: int
    step: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if self.step < 1:
            raise ValueError(f"{self.name}: step must be >= 1, got {self.step}")
        if self.low > self.high:
            raise ValueError(f"{self.name}: low {self.low} > high {self.high}")
        if not self.is_legal(self.default):
            raise ValueError(
                f"{self.name}: default {self.default} is not a legal value "
                f"(range [{self.low}, {self.high}], step {self.step})"
            )

    @property
    def num_values(self) -> int:
        """Number of legal values."""
        return (self.high - self.low) // self.step + 1

    @property
    def span(self) -> int:
        """Distance between the extreme legal values."""
        return (self.num_values - 1) * self.step

    def is_legal(self, value: int) -> bool:
        """True if ``value`` is on the grid and within bounds."""
        return (
            self.low <= value <= self.high and (value - self.low) % self.step == 0
        )

    def clamp(self, value: float) -> int:
        """Nearest legal value to (possibly fractional) ``value``."""
        steps = round((value - self.low) / self.step)
        steps = max(0, min(self.num_values - 1, steps))
        return self.low + steps * self.step

    def clamp_up(self, value: float) -> int:
        """Smallest legal value >= ``value`` (or the top of the range)."""
        steps = math.ceil((value - self.low) / self.step)
        steps = max(0, min(self.num_values - 1, steps))
        return self.low + steps * self.step

    def clamp_down(self, value: float) -> int:
        """Largest legal value <= ``value`` (or the bottom of the range)."""
        steps = math.floor((value - self.low) / self.step)
        steps = max(0, min(self.num_values - 1, steps))
        return self.low + steps * self.step

    def random(self, rng: np.random.Generator) -> int:
        """A uniformly random legal value."""
        return self.low + int(rng.integers(self.num_values)) * self.step

    def neighbors(self, value: int) -> list[int]:
        """Legal values one step away from ``value`` (1 or 2 of them)."""
        if not self.is_legal(value):
            raise ValueError(f"{self.name}: {value} is not legal")
        out = []
        if value - self.step >= self.low:
            out.append(value - self.step)
        if value + self.step <= self.high:
            out.append(value + self.step)
        return out

    def extremeness(self, value: int) -> float:
        """How close ``value`` sits to a bound, in [0, 1].

        0 at the centre of the range, 1 exactly on a bound.  Used by the
        extreme-value damping option and the measurement-noise model
        (the paper observed configurations with extreme values behave
        erratically, §III.A).
        """
        if self.span == 0:
            return 0.0
        centre = (self.low + self.high) / 2.0
        return abs(value - centre) / (self.span / 2.0)


class Configuration(Mapping[str, int]):
    """An immutable, hashable assignment of values to parameter names.

    Facts derived from the whole configuration are computed once: the
    sorted items (which also give the hash) at construction, the per-node
    slices on first use, unless the builder hands them over (a
    duplication combine knows them per tier; see
    :class:`~repro.harmony.scaling.DuplicationScheme`).  Pickling carries
    the values alone, so the receiver recomputes the hash under its own
    string-hash seed, and the slices on first use.
    """

    __slots__ = ("_values", "_items", "_hash", "_slices")

    def __init__(self, values: Mapping[str, int]) -> None:
        values = dict(values)
        self._set(values, tuple(sorted(values.items())), None)

    def _set(
        self,
        values: dict[str, int],
        items: tuple[tuple[str, int], ...],
        slices: Optional[Mapping[str, tuple[tuple[str, int], ...]]],
    ) -> None:
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_slices", slices)

    @classmethod
    def _from_sorted(
        cls,
        items: tuple[tuple[str, int], ...],
        slices: Mapping[str, tuple[tuple[str, int], ...]],
    ) -> "Configuration":
        """A configuration of ``items``, which must already be sorted.

        ``slices`` must equal what :meth:`node_slices` would compute from
        them.  Neither is checked: the caller built both from one layout.
        """
        config = cls.__new__(cls)
        config._set(dict(items), items, slices)
        return config

    @classmethod
    def coerce(cls, values: Mapping[str, int]) -> "Configuration":
        """``values`` itself if it is a configuration, else a new one."""
        return values if isinstance(values, Configuration) else cls(values)

    def sorted_items(self) -> tuple[tuple[str, int], ...]:
        """``tuple(sorted(self.items()))``, computed once."""
        return self._items

    def node_slices(self) -> Mapping[str, tuple[tuple[str, int], ...]]:
        """Node id → that node's ``(param, value)`` pairs, sorted by param.

        Splits every ``"<node>.<param>"`` name once, on first use, unless
        the builder handed the slices over; names without a dot belong to
        no node.  Replicas with equal slices share one tuple.
        """
        slices = self._slices
        if slices is None:
            grouped: dict[str, list[tuple[str, int]]] = {}
            for name, value in self._items:
                node_id, dot, param = name.partition(".")
                if dot:
                    grouped.setdefault(node_id, []).append((param, value))
            shared: dict[tuple, tuple] = {}
            by_node = {}
            for node_id, pairs in grouped.items():
                frozen = tuple(pairs)
                by_node[node_id] = shared.setdefault(frozen, frozen)
            slices = MappingProxyType(by_node)
            object.__setattr__(self, "_slices", slices)
        return slices

    def __getitem__(self, key: str) -> int:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def keys(self) -> KeysView[str]:
        return self._values.keys()

    def values(self) -> ValuesView[int]:
        return self._values.values()

    def items(self) -> ItemsView[str, int]:
        return self._values.items()

    def get(self, key: str, default: Optional[int] = None) -> Optional[int]:
        return self._values.get(key, default)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __reduce__(self) -> tuple:
        return (Configuration, (self._values,))

    def __setstate__(self, state: tuple) -> None:
        # Pickles written before ``__reduce__`` existed hold the slots,
        # including a hash salted by the writing interpreter: rebuild.
        _, slots = state
        self.__init__(slots["_values"])

    def replace(self, **updates: int) -> "Configuration":
        """A copy with some values changed."""
        merged = dict(self._values)
        for key in updates:
            if key not in merged:
                raise KeyError(f"unknown parameter {key!r}")
        merged.update(updates)
        return Configuration(merged)

    def subset(self, names: Iterable[str]) -> "Configuration":
        """A configuration restricted to ``names``."""
        return Configuration({n: self._values[n] for n in names})

    def merge(self, other: Mapping[str, int]) -> "Configuration":
        """A configuration with ``other``'s entries added/overriding."""
        merged = dict(self._values)
        merged.update(other)
        return Configuration(merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"Configuration({inner})"


class _Bounds:
    """A space's bounds as arrays, for the vectorised checks.

    Values are checked against them only when every bound and value is a
    plain int, float or bool of magnitude below 2**53, so each array
    operation reproduces the per-parameter Python arithmetic exactly.
    """

    __slots__ = ("names", "exact", "low", "high", "step", "centre", "half_span", "flat")

    def __init__(self, params: Sequence[IntParameter]) -> None:
        self.names = [p.name for p in params]
        self.exact = all(
            -_EXACT < bound < _EXACT for p in params for bound in (p.low, p.high, p.step)
        )
        if not self.exact:
            return
        self.low = np.array([p.low for p in params], dtype=np.int64)
        self.high = np.array([p.high for p in params], dtype=np.int64)
        self.step = np.array([p.step for p in params], dtype=np.int64)
        # The same Python expressions IntParameter.extremeness evaluates;
        # zero-span dimensions divide by 1 and are then zeroed.
        self.centre = np.array([(p.low + p.high) / 2.0 for p in params])
        self.half_span = np.array([p.span / 2.0 if p.span else 1.0 for p in params])
        self.flat = np.array([p.span == 0 for p in params])

    def values(self, config: Mapping[str, int]) -> Optional[np.ndarray]:
        """``config``'s values in space order as exact float64, or None.

        None when the bounds or some value are not plain numbers small
        enough to be exact; a missing name raises ``KeyError`` as a
        per-name lookup would.
        """
        if not self.exact:
            return None
        source = config._values if isinstance(config, Configuration) else config
        return self.array(list(map(source.__getitem__, self.names)))

    def array(self, values: list) -> Optional[np.ndarray]:
        """``values`` (in space order) as exact float64, or None."""
        if not self.exact or not _PLAIN_TYPES.issuperset(map(type, values)):
            return None
        try:
            array = np.array(values, dtype=np.float64)
        except OverflowError:
            return None
        return array if (np.abs(array) < _EXACT).all() else None

    def legal(self, values: np.ndarray) -> bool:
        """True when every exact value is on its grid and within bounds."""
        if not (values == np.trunc(values)).all():
            return False
        ints = values.astype(np.int64)
        return bool(
            (
                (ints >= self.low)
                & (ints <= self.high)
                & ((ints - self.low) % self.step == 0)
            ).all()
        )


class ParameterSpace:
    """An ordered collection of :class:`IntParameter` dimensions."""

    def __init__(self, parameters: Sequence[IntParameter]) -> None:
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        self._params: tuple[IntParameter, ...] = tuple(parameters)
        self._index = {p.name: i for i, p in enumerate(self._params)}
        #: Bound arrays of the vectorised checks, built on first use.
        self._bounds: Optional[_Bounds] = None

    # -- basic introspection -------------------------------------------
    @property
    def parameters(self) -> tuple[IntParameter, ...]:
        """The dimensions, in order."""
        return self._params

    @property
    def names(self) -> list[str]:
        """Parameter names, in order."""
        return [p.name for p in self._params]

    @property
    def dimension(self) -> int:
        """Number of dimensions."""
        return len(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> IntParameter:
        return self._params[self._index[name]]

    def subspace(self, names: Iterable[str]) -> "ParameterSpace":
        """A space containing only ``names`` (kept in this space's order)."""
        wanted = set(names)
        missing = wanted - set(self._index)
        if missing:
            raise KeyError(f"unknown parameters: {sorted(missing)}")
        return ParameterSpace([p for p in self._params if p.name in wanted])

    def union(self, other: "ParameterSpace") -> "ParameterSpace":
        """Concatenate two disjoint spaces."""
        return ParameterSpace(list(self._params) + list(other._params))

    def prefixed(self, prefix: str) -> "ParameterSpace":
        """A copy with every parameter name prefixed by ``prefix``.

        Used to build cluster-wide spaces, e.g. ``proxy0.cache_mem``.
        """
        return ParameterSpace(
            [
                IntParameter(
                    name=f"{prefix}{p.name}",
                    default=p.default,
                    low=p.low,
                    high=p.high,
                    step=p.step,
                )
                for p in self._params
            ]
        )

    # -- configurations ---------------------------------------------------
    def default_configuration(self) -> Configuration:
        """The configuration of all defaults."""
        return Configuration({p.name: p.default for p in self._params})

    def random_configuration(self, rng: np.random.Generator) -> Configuration:
        """A uniformly random legal configuration."""
        return Configuration({p.name: p.random(rng) for p in self._params})

    def _vector_bounds(self) -> _Bounds:
        """The bound arrays (built on first use, not at construction)."""
        if self._bounds is None:
            self._bounds = _Bounds(self._params)
        return self._bounds

    def validate(self, config: Mapping[str, int]) -> None:
        """Raise ``ValueError`` unless ``config`` is complete and legal."""
        if config.keys() != self._index.keys():
            missing = set(self._index) - set(config)
            extra = set(config) - set(self._index)
            raise ValueError(
                f"configuration mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        bounds = self._vector_bounds()
        values = bounds.values(config)
        if values is not None and bounds.legal(values):
            return
        # Anything the fast path does not accept is judged, and reported,
        # one parameter at a time.
        for p in self._params:
            if not p.is_legal(config[p.name]):
                raise ValueError(
                    f"{p.name}={config[p.name]} is not legal "
                    f"(range [{p.low}, {p.high}], step {p.step})"
                )

    def all_legal(self, values: list) -> bool:
        """True when ``values``, in space order, are all legal plain numbers.

        The array half of :meth:`validate`, for values already extracted.
        False when some value is illegal, and also when the bounds or a
        value fall outside what the array check trusts (an odd type, a
        magnitude of 2**53 or more); :meth:`validate` then gives the
        verdict, and the message.
        """
        if len(values) != len(self._params):
            raise ValueError(
                f"{len(values)} values for {len(self._params)} parameters"
            )
        bounds = self._vector_bounds()
        array = bounds.array(values)
        return array is not None and bounds.legal(array)

    def clamp(self, config: Mapping[str, int | float]) -> Configuration:
        """Project arbitrary values to the nearest legal configuration."""
        return Configuration(
            {p.name: p.clamp(float(config[p.name])) for p in self._params}
        )

    def extremeness(self, config: Mapping[str, int]) -> float:
        """Mean per-dimension extremeness of ``config`` in [0, 1]."""
        if not self._params:
            return 0.0
        bounds = self._vector_bounds()
        values = bounds.values(config)
        if values is None:
            return float(
                np.mean([p.extremeness(config[p.name]) for p in self._params])
            )
        distance = np.abs(values - bounds.centre) / bounds.half_span
        distance[bounds.flat] = 0.0
        return float(np.mean(distance))

    # -- vector space -------------------------------------------------------
    def to_vector(self, config: Mapping[str, int]) -> np.ndarray:
        """Configuration → float vector (in parameter order)."""
        return np.array([float(config[p.name]) for p in self._params])

    def from_vector(self, vector: np.ndarray) -> Configuration:
        """Float vector → nearest legal configuration (paper §II.B)."""
        if len(vector) != len(self._params):
            raise ValueError(
                f"vector has {len(vector)} entries, space has {len(self._params)}"
            )
        return Configuration(
            {p.name: p.clamp(float(v)) for p, v in zip(self._params, vector)}
        )

    def lower_bounds(self) -> np.ndarray:
        """Vector of lower bounds."""
        return np.array([float(p.low) for p in self._params])

    def upper_bounds(self) -> np.ndarray:
        """Vector of upper bounds."""
        return np.array([float(p.high) for p in self._params])

    def __repr__(self) -> str:
        return f"ParameterSpace({', '.join(self.names)})"
