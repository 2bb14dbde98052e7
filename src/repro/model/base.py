"""Backend interface: what a "measurement iteration" consumes and produces.

Both backends (analytic and discrete-event) implement
:class:`PerformanceBackend`: given a :class:`Scenario` (the cluster, the
workload and the closed EB population) and a full configuration, produce a
:class:`Measurement` — WIPS plus the per-node resource utilizations §IV's
reconfiguration algorithm monitors.

This module also hosts the memoization layer.  :class:`ContentMemo` is
the one content-addressed memo: an in-process LRU, the only cache level
a process keeps.  Two memos are built on it: the
analytic backend's seed-free solution memo, and the
:class:`MeasurementCache` keyed on ``(scenario fingerprint,
configuration, seed)`` that the :class:`MemoizedBackend` wrapper
consults, so repeated evaluations of the same point (simplex shrink
re-evaluations, remeasure baselines, cross-workload matrix reuse) are
never solved twice.  Measurements are deterministic per seed, so a cache
hit returns the bit-identical measurement the backend would have
produced.
"""

from __future__ import annotations

import abc
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence

from repro.cluster.topology import ClusterSpec
from repro.harmony.parameter import Configuration
from repro.lint import sanitizer as _san
from repro.tpcw.browser import BrowserBehavior
from repro.tpcw.catalog import Catalog
from repro.tpcw.interactions import WorkloadMix

__all__ = [
    "Scenario",
    "ResourceUtilization",
    "Measurement",
    "PerformanceBackend",
    "CacheStats",
    "SpeculationStats",
    "ContentMemo",
    "MeasurementCache",
    "MemoizedBackend",
]


@dataclass(frozen=True)
class Scenario:
    """The system and workload one measurement iteration runs against."""

    cluster: ClusterSpec
    mix: WorkloadMix
    #: Number of emulated browsers (closed population).
    population: int
    catalog: Catalog = field(default_factory=Catalog)
    #: Think-time / navigation behaviour; mix defaults to the scenario mix.
    behavior: Optional[BrowserBehavior] = None
    #: Optional work-line partition (line id → node ids).  When set, each
    #: line serves an equal share of the EB population in isolation.
    work_lines: Optional[Mapping[str, tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.behavior is None:
            object.__setattr__(self, "behavior", BrowserBehavior(self.mix))
        if self.work_lines is not None:
            # Sorted so the partition is canonical: fingerprint() hashes
            # repr(work_lines), and insertion order must not leak into it.
            frozen = {k: tuple(v) for k, v in sorted(self.work_lines.items())}
            listed = [
                n
                # Order-insensitive: both sides of the check below are
                # sorted before comparison.
                for nodes in frozen.values()  # repro: noqa[RPL003]
                for n in nodes
            ]
            if sorted(listed) != sorted(self.cluster.node_ids):
                raise ValueError(
                    "work lines must cover every cluster node exactly once"
                )
            object.__setattr__(self, "work_lines", frozen)

    def fingerprint(self) -> str:
        """Content hash of everything that affects a measurement.

        Covers the cluster layout and hardware, the workload mix weights,
        the population, the catalog's object universe, the think-time
        behaviour and any work-line partition — so two scenarios built
        independently from the same inputs share cache entries, and any
        difference that could change a measurement changes the key.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            assert self.behavior is not None
            h = hashlib.sha256()
            h.update(
                repr(
                    (
                        self.cluster.fingerprint(),
                        self.mix.fingerprint(),
                        self.population,
                        self.catalog.fingerprint(),
                        (
                            self.behavior.mix.fingerprint(),
                            self.behavior.mean_think_time,
                            self.behavior.max_think_time,
                        ),
                        self.work_lines,
                    )
                ).encode()
            )
            cached = h.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def with_mix(self, mix: WorkloadMix) -> "Scenario":
        """Same scenario under a different workload mix."""
        return Scenario(
            cluster=self.cluster,
            mix=mix,
            population=self.population,
            catalog=self.catalog,
            behavior=BrowserBehavior(
                mix,
                self.behavior.mean_think_time,
                self.behavior.max_think_time,
            ),
            work_lines=self.work_lines,
        )

    def with_cluster(self, cluster: ClusterSpec) -> "Scenario":
        """Same scenario on a different cluster layout (post-reconfiguration).

        Any work-line partition is dropped (lines are tied to the layout).
        """
        return Scenario(
            cluster=cluster,
            mix=self.mix,
            population=self.population,
            catalog=self.catalog,
            behavior=self.behavior,
            work_lines=None,
        )


@dataclass(frozen=True)
class ResourceUtilization:
    """Utilization of one node's resources, each in [0, 1]-ish.

    These are the ``R_ij`` values of the paper's Table 5 (j ranges over
    CPU, disk, network and memory).  Values can slightly exceed 1 for the
    memory ratio (resident/physical) under pressure.
    """

    cpu: float
    disk: float
    network: float
    memory: float

    def as_dict(self) -> dict[str, float]:
        """Resource-name → utilization mapping (for threshold scans)."""
        return {
            "cpu": self.cpu,
            "disk": self.disk,
            "network": self.network,
            "memory": self.memory,
        }

    def max_utilization(self) -> float:
        """The busiest resource's utilization."""
        return max(self.cpu, self.disk, self.network, self.memory)


@dataclass(frozen=True)
class Measurement:
    """One iteration's observed performance."""

    #: Measured web interactions per second (includes measurement noise).
    wips: float
    #: Model throughput before noise (diagnostic; DES reports its raw rate).
    raw_wips: float
    #: Fraction of interactions rejected/failed.
    error_rate: float
    #: Mean interaction response time, seconds.
    response_time: float
    #: Per-node resource utilizations.
    utilization: Mapping[str, ResourceUtilization]
    #: Free-form diagnostics (hit rates, pool occupancies, memory penalty…).
    diagnostics: Mapping[str, float] = field(default_factory=dict)
    #: Per-work-line WIPS when the scenario was partitioned.
    per_line_wips: Mapping[str, float] = field(default_factory=dict)


class PerformanceBackend(abc.ABC):
    """Measure a configuration on a scenario — the testbed substitute."""

    @abc.abstractmethod
    def measure(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int = 0,
    ) -> Measurement:
        """Run one measurement iteration and return its observation.

        ``configuration`` must be complete for ``scenario.cluster``'s full
        parameter space (``"<node>.<param>"`` names).  ``seed`` drives the
        measurement noise / simulation randomness, so repeating a seed
        reproduces the measurement exactly.
        """

    def measure_batch(
        self,
        scenario: Scenario,
        requests: Sequence[tuple[Configuration, int]],
    ) -> list[Measurement]:
        """Measure many ``(configuration, seed)`` points on one scenario.

        Results are returned in request order and are identical to calling
        :meth:`measure` on each point.  Backends that can amortize work
        across points override this (the analytic backend solves all
        distinct configurations in one MVA batch); the default
        is the plain serial loop.
        """
        return [self.measure(scenario, cfg, seed=seed) for cfg, seed in requests]

    def prefetch_configs(
        self,
        scenario: Scenario,
        configurations: Sequence[Configuration],
    ) -> int:
        """Warm any deterministic caches for configurations likely to be
        measured soon.  Returns the number of cold solves performed.

        Purely advisory: a backend with nothing seed-independent to cache
        (the DES backend) ignores the hint, and measurements after a
        prefetch are bit-identical to measurements without one — the only
        effect is that later :meth:`measure` calls may hit a warm cache.
        The analytic backend overrides this to solve every configuration
        in one MVA batch.
        """
        return 0

    def measurement_cache_token(self) -> tuple:
        """Extra cache-key material identifying this backend's output.

        Measurement caches key on ``(scenario, configuration, seed)``;
        a backend whose output for that triple depends on additional
        backend-level settings (e.g. the DES with ``replications>1``
        merges several replications into one measurement) must return
        them here so differently-configured backends never share
        entries.  The default empty tuple is dropped from keys entirely,
        keeping legacy key shapes — and on-disk shared stores — intact.
        """
        return ()


# ----------------------------------------------------------------------
# Measurement memoization


@dataclass
class CacheStats:
    """Hit/miss/size counters of one measurement cache.

    Misses are sliced by *why* they missed.  Measurement-cache keys include
    the seed (they must: noise makes measurements seed-dependent), so a
    tuning loop that derives a fresh seed per iteration can never hit —
    every lookup asks for a configuration/seed pair nobody measured.  Such
    ``seed_cold_misses`` (the configuration was cached under *other* seeds)
    are cold by design; ``config_cold_misses`` (the configuration has never
    been cached at all) are the only sign a cache might actually be broken.
    A fig4-style run reporting ``hit_rate: 0.0`` with all misses seed-cold
    is therefore working exactly as specified.
    """

    hits: int = 0
    misses: int = 0
    size: int = 0
    #: Misses where the configuration was cached, but under different seeds.
    seed_cold_misses: int = 0
    #: Misses where the configuration was never cached under any seed.
    config_cold_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def config_hit_rate(self) -> float:
        """Hit rate with by-design seed misses excluded.

        ``hits / (hits + config_cold_misses)`` — "of the lookups the cache
        could possibly have served, how many did it serve?".  This is the
        number to alarm on; :attr:`hit_rate` legitimately reads 0.0 under
        per-iteration seeding.
        """
        servable = self.hits + self.config_cold_misses
        return self.hits / servable if servable else 0.0

    def as_dict(self) -> dict[str, float]:
        """Counters as a flat mapping (for reports and JSON)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": self.hit_rate,
            "seed_cold_misses": self.seed_cold_misses,
            "config_cold_misses": self.config_cold_misses,
            "config_hit_rate": self.config_hit_rate,
        }


@dataclass
class SpeculationStats:
    """Accounting of one speculative evaluator's predictions.

    Units: ``planned``/``hits``/``misses`` count per-group candidate
    fragments; ``batched`` counts fused full configurations submitted to
    the backend; ``solves`` counts cold deterministic solves the prefetches
    actually performed (per work line for partitioned scenarios).  Waste is
    bounded by the frontier size per step: each step adds at most
    ``len(frontier)`` to ``planned`` and at least one of those candidates
    is the committed ask whenever the prediction was exact.
    """

    #: Candidate fragments speculated (post-dedupe, per group, per step).
    planned: int = 0
    #: Committed asks that were in the previous step's speculated frontier.
    hits: int = 0
    #: Committed asks the previous frontier did not contain.
    misses: int = 0
    #: Fused full configurations submitted for prefetching.
    batched: int = 0
    #: Cold deterministic solves performed by prefetches.
    solves: int = 0
    #: Prefetch batches dropped because the backend raised — speculation
    #: is advisory, so a failed warm-up never aborts the tuning step.
    prefetch_failures: int = 0

    @property
    def waste(self) -> int:
        """Speculated candidates that were never committed."""
        return max(self.planned - self.hits, 0)

    @property
    def waste_ratio(self) -> float:
        """Fraction of speculated candidates never committed."""
        return self.waste / self.planned if self.planned else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of committed asks the speculation predicted."""
        committed = self.hits + self.misses
        return self.hits / committed if committed else 0.0

    def as_dict(self) -> dict[str, float]:
        """Counters as a flat mapping (for reports and JSON)."""
        return {
            "planned": self.planned,
            "hits": self.hits,
            "misses": self.misses,
            "batched": self.batched,
            "solves": self.solves,
            "prefetch_failures": self.prefetch_failures,
            "waste": self.waste,
            "waste_ratio": self.waste_ratio,
            "hit_rate": self.hit_rate,
        }


class ContentMemo:
    """A content-addressed LRU memo.

    An in-process LRU of at most ``max_entries`` entries (``None``:
    unbounded; ``0``: the memo is off and stores and counts nothing).
    Values must be deterministic per key, which is what makes a hit
    bit-identical to a recompute, and entries computed in another process
    safe to :meth:`absorb`.

    A memo is used by one thread, and pickles with the backend that
    owns it.
    """

    def __init__(self, max_entries: Optional[int], namespace: str) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be >= 0 (or None for unbounded)")
        self.max_entries = max_entries
        self.namespace = namespace
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Entries new since the last :meth:`take_gained` (None: not
        #: recording; only fleet workers record).
        self._gained: Optional[dict[tuple, object]] = None

    def get(self, key: tuple) -> Optional[object]:
        """The value under ``key``, or None (counts a hit or a miss)."""
        if self.max_entries == 0:
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            self._on_miss(key)
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def peek(self, key: tuple) -> Optional[object]:
        """Like :meth:`get`, but leaves the counters and LRU order alone.

        Prefetching probes this way, so its lookups never distort the
        hit/miss statistics reported for real measurements.
        """
        if self.max_entries == 0:
            return None
        return self._entries.get(key)

    def put(self, key: tuple, value: object) -> None:
        """Record one entry (evicting LRU beyond ``max_entries``)."""
        if self.max_entries == 0:
            return
        self._insert(key, value)

    def absorb(self, items: Iterable[tuple[tuple, object]]) -> int:
        """Merge entries computed elsewhere; returns how many were new.

        This is where two processes' values for one key meet, so a key
        already present is checked for coherence, not overwritten.
        """
        if self.max_entries == 0:
            return 0
        added = 0
        for key, value in items:
            if key not in self._entries:
                self._insert(key, value)
                added += 1
            elif _san.active():
                _san.check_coherent(
                    f"{self.namespace} absorb", key, self._entries[key], value
                )
        return added

    def take_gained(self) -> list[tuple[tuple, object]]:
        """The entries new since the last call; records from here on.

        A fleet worker calls this once at start-up and then after each
        spec, so each later call returns exactly one spec's new entries.
        """
        taken, self._gained = self._gained, {}
        return list(taken.items()) if taken else []

    def items(self) -> list[tuple[tuple, object]]:
        """Snapshot of the entries, least recently used first."""
        return list(self._entries.items())

    def _insert(self, key: tuple, value: object) -> None:
        if key not in self._entries:
            self._on_resize(key, 1)
            if self._gained is not None:
                self._gained[key] = value
        self._entries[key] = value
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._on_resize(evicted, -1)

    def _on_miss(self, key: tuple) -> None:
        """Hook: a lookup of ``key`` missed."""

    def _on_resize(self, key: tuple, delta: int) -> None:
        """Hook: ``key`` entered (+1) or left (-1) the memo."""

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/size counters."""
        return CacheStats(
            hits=self.hits, misses=self.misses, size=len(self._entries)
        )

    def __len__(self) -> int:
        return len(self._entries)


class MeasurementCache(ContentMemo):
    """Content-addressed memoization of measurements.

    Keys are ``(scenario fingerprint, configuration, seed)``; a hit returns
    the exact :class:`Measurement` (immutable) the backend produced for
    that point, which — backends being deterministic per seed — is
    bit-identical to re-measuring.  Entries are evicted LRU beyond
    ``max_entries``.
    """

    def __init__(self, max_entries: Optional[int] = 100_000) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        super().__init__(max_entries, "meas")
        self.seed_cold_misses = 0
        self.config_cold_misses = 0
        #: (fingerprint, configuration) → number of live seeds cached for it;
        #: used to slice misses into "cold by design" vs "cache broken".
        self._config_seeds: dict[tuple, int] = {}

    @staticmethod
    def key(
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
        token: tuple = (),
    ) -> tuple:
        """The content-addressed cache key of one measurement point.

        ``token`` is the measuring backend's
        :meth:`PerformanceBackend.measurement_cache_token`; an empty one
        is omitted so pre-existing 3-tuple keys (and anything persisted
        under them) stay valid.
        """
        base = (
            scenario.fingerprint(),
            Configuration.coerce(configuration).sorted_items(),
            int(seed),
        )
        return base + (tuple(token),) if token else base

    def lookup(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
        token: tuple = (),
    ) -> Optional[Measurement]:
        """The cached measurement for a point, or None (counts hit/miss)."""
        return self.get(self.key(scenario, configuration, seed, token))

    def store(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
        measurement: Measurement,
        token: tuple = (),
    ) -> None:
        """Record one measured point (evicting LRU beyond ``max_entries``)."""
        self.put(self.key(scenario, configuration, seed, token), measurement)

    def _on_miss(self, key: tuple) -> None:
        if key[:2] in self._config_seeds:
            self.seed_cold_misses += 1
        else:
            self.config_cold_misses += 1

    def _on_resize(self, key: tuple, delta: int) -> None:
        base = key[:2]
        seeds = self._config_seeds.get(base, 0) + delta
        if seeds > 0:
            self._config_seeds[base] = seeds
        else:
            self._config_seeds.pop(base, None)

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/size counters (misses sliced by cause)."""
        return replace(
            super().stats,
            seed_cold_misses=self.seed_cold_misses,
            config_cold_misses=self.config_cold_misses,
        )


class MemoizedBackend(PerformanceBackend):
    """A backend wrapper that memoizes measurements."""

    def __init__(
        self,
        backend: PerformanceBackend,
        cache: Optional[MeasurementCache] = None,
    ) -> None:
        self.backend = backend
        self.cache = cache if cache is not None else MeasurementCache()

    def measurement_cache_token(self) -> tuple:
        """Delegate to the wrapped backend (the cache keys on its token)."""
        return self.backend.measurement_cache_token()

    def measure(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int = 0,
    ) -> Measurement:
        """Measure one point, serving repeats from the cache."""
        token = self.backend.measurement_cache_token()
        hit = self.cache.lookup(scenario, configuration, seed, token)
        if hit is not None:
            return hit
        measurement = self.backend.measure(scenario, configuration, seed=seed)
        self.cache.store(scenario, configuration, seed, measurement, token)
        return measurement

    def measure_batch(
        self,
        scenario: Scenario,
        requests: Sequence[tuple[Configuration, int]],
    ) -> list[Measurement]:
        """Measure a batch, forwarding only cache misses to the backend."""
        token = self.backend.measurement_cache_token()
        results: list[Optional[Measurement]] = []
        missing: list[tuple[int, Configuration, int]] = []
        for i, (cfg, seed) in enumerate(requests):
            hit = self.cache.lookup(scenario, cfg, seed, token)
            results.append(hit)
            if hit is None:
                missing.append((i, cfg, seed))
        if missing:
            measured = self.backend.measure_batch(
                scenario, [(cfg, seed) for _, cfg, seed in missing]
            )
            for (i, cfg, seed), m in zip(missing, measured):
                self.cache.store(scenario, cfg, seed, m, token)
                results[i] = m
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def prefetch_configs(
        self,
        scenario: Scenario,
        configurations: Sequence[Configuration],
    ) -> int:
        """Forward prefetch hints to the inner backend.

        The measurement cache itself is seed-addressed and cannot be warmed
        without seeds; the deterministic (seed-independent) caches live in
        the inner backend.
        """
        return self.backend.prefetch_configs(scenario, configurations)

    @property
    def stats(self) -> CacheStats:
        """The underlying cache's counters."""
        return self.cache.stats
