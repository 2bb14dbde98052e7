"""The discrete-event measurement backend.

One :meth:`SimulationBackend.measure` call builds the cluster's server
processes, spawns the emulated-browser population, runs warm-up /
measurement / cool-down over simulated time (the §III.A iteration), and
returns the same :class:`~repro.model.base.Measurement` the analytic
backend produces — WIPS, error rate, response times and per-node resource
utilizations.

Simulated durations default to a scaled-down iteration (the paper's
100/1000/100 s cycle × ``time_scale``) so a measurement stays cheap enough
for tests while collecting thousands of interactions.

Performance layers (all default-on, all bit-identical to the seed DES):

* the lean event kernel (:mod:`repro.sim.core`) — think and network
  delays are bare-float yields dispatched as resume records, CPU and
  disk service is one hold (a hold-grant and a hold-end record), pool
  grants and hand-overs are grant records, and everything due at the
  current instant goes through a FIFO instead of the heap;
* one :class:`~repro.sim.process.Join` per page for its embedded
  images, so the page resumes once, in the slot of the last image's
  completion, instead of once per image; each image runs in one
  generator frame;
* each interaction runs inside its browser's process (``yield from``),
  with no kick and no completion event.  The browser's continuation
  thus runs ahead of same-instant entries it does not touch, but it
  only records meters and draws from the browser's own stream, so no
  draw moves;
* opt-in **parallel replications** (``replications=R``): R seed-derived
  independent iterations fanned through the parallel executor and merged
  by batch means for tighter confidence intervals at roughly the
  wall-clock of one.  ``replications=1`` (default) is bit-identical to
  the seed backend and keeps legacy cache keys; ``R>1`` points are
  cache-key-separated via :meth:`measurement_cache_token`.

Each emulated browser draws from its own seed-derived
:class:`numpy.random.Generator`.

``profile=True`` records kernel entry counts and per-phase wall-clock
into ``Measurement.diagnostics`` (diagnostics only: profiled
measurements carry timing values and are excluded from byte-identity
gates).
"""

from __future__ import annotations

import math
import os
import time
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cluster.appserver import AppServerModel
from repro.cluster.context import WorkloadContext
from repro.cluster.database import DatabaseModel
from repro.cluster.memory import MemoryModel
from repro.cluster.node import Role
from repro.cluster.proxy import ProxyModel
from repro.cluster.topology import ClusterSpec
from repro.des.servers import AppServerSim, DbServerSim, NodeSim, ProxyServerSim
from repro.faults.backend import ClusterOutageError
from repro.harmony.parameter import Configuration
from repro.model.base import (
    Measurement,
    PerformanceBackend,
    ResourceUtilization,
    Scenario,
)
from repro.sim.core import Environment
from repro.sim.process import Join
from repro.sim.resources import QueueFullError
from repro.tpcw.interactions import InteractionCategory
from repro.tpcw.metrics import WipsMeter
from repro.tpcw.mix import MixSampler
from repro.tpcw.navigation import NavigationModel
from repro.tpcw.wirt import WirtTracker
from repro.tpcw.profiles import PROFILES
from repro.tuning.iteration import IterationSpec
from repro.util.rng import RngFactory, derive_seed
from repro.util.stats import RunningStats, percentile

__all__ = ["SimulationBackend", "NETWORK_RTT"]

#: Per-interaction network round trips (matches the analytic backend).
NETWORK_RTT = 5e-3


def _clock() -> float:
    """Wall-clock reads for ``profile=True`` diagnostics only.

    Never feeds simulation state — profiled measurements are documented
    as excluded from determinism/byte-identity gates.
    """
    return time.perf_counter()  # repro: noqa[RPL002] profile diagnostics only


class _SimCluster:
    """The wired-up simulated cluster for one measurement."""

    def __init__(
        self,
        env: Environment,
        cluster: ClusterSpec,
        configuration: Mapping[str, int],
        ctx: WorkloadContext,
        memory: MemoryModel,
        work_lines: Optional[Mapping[str, tuple[str, ...]]] = None,
    ) -> None:
        self.env = env
        self.ctx = ctx
        self.nodes: dict[str, NodeSim] = {}
        by_role: dict[Role, list[NodeSim]] = {r: [] for r in Role}
        configuration = Configuration.coerce(configuration)
        for placement in cluster.placements:
            cfg = cluster.node_config(configuration, placement.node_id)
            role = placement.role
            if role is Role.PROXY:
                model_eval = ProxyModel(placement.spec).evaluate(cfg, ctx)
                sim: NodeSim = ProxyServerSim(
                    env, placement.node_id, placement.spec, cfg, ctx,
                    memory.penalty(model_eval.memory_bytes, placement.spec.memory_bytes),
                    model_eval.memory_bytes,
                )
            elif role is Role.APP:
                app_eval = AppServerModel(placement.spec).evaluate(
                    cfg, ctx, dynamic_pages=1.0, static_requests=1.0
                )
                sim = AppServerSim(
                    env, placement.node_id, placement.spec, cfg, ctx,
                    memory.penalty(app_eval.memory_bytes, placement.spec.memory_bytes),
                    app_eval.memory_bytes,
                )
            else:
                db_eval = DatabaseModel(placement.spec).evaluate(
                    cfg, ctx, dynamic_pages=1.0
                )
                sim = DbServerSim(
                    env, placement.node_id, placement.spec, cfg, ctx,
                    memory.penalty(db_eval.memory_bytes, placement.spec.memory_bytes),
                    db_eval.memory_bytes,
                )
            self.nodes[placement.node_id] = sim
            by_role[role].append(sim)
        self._by_role = by_role
        # Work lines restrict routing; otherwise one global line.
        if work_lines:
            self.lines = {
                line: {
                    role: [self.nodes[n] for n in node_ids
                           if cluster.role_of(n) is role]
                    for role in Role
                }
                for line, node_ids in work_lines.items()
            }
        else:
            self.lines = {"all": by_role}
        # A line with an empty tier cannot serve its population share:
        # surface it as the same outage the analytic path raises, at
        # build time, instead of dying mid-simulation inside an
        # unwaited process (where the error would be swallowed).
        for line, groups in self.lines.items():
            for role, sims in groups.items():
                if not sims:
                    raise ClusterOutageError(
                        f"work line {line!r} has no {role.value} node to "
                        "route to"
                    )

    def pick(self, line: str, role: Role, rng: np.random.Generator) -> NodeSim:
        """Random uniform node of ``role`` within ``line`` (load balancer)."""
        nodes = self.lines[line][role]
        n = len(nodes)
        if n == 1:
            return nodes[0]
        if not n:
            # Defensive: construction already validates, but a tier
            # emptied behind our back must not surface as numpy's bare
            # ValueError from ``integers(0)``.
            raise ClusterOutageError(
                f"work line {line!r} has no {role.value} node to route to"
            )
        return nodes[int(rng.integers(n))]


def _replication_worker(
    init_kwargs: dict,
    scenario: Scenario,
    configuration: Configuration,
    seed: int,
) -> Measurement:
    """Parallel-executor worker: one independent replication."""
    backend = SimulationBackend(**init_kwargs)
    return backend._measure_once(scenario, configuration, seed)


def _merge_replications(results: Sequence[Measurement]) -> Measurement:
    """Batch-means merge of independent replications.

    Metrics and per-node utilizations are averaged in replication order
    (deterministic); ``replication.*`` diagnostics record the spread so
    callers get confidence intervals for free.
    """
    n = len(results)
    if n == 1:
        return results[0]
    inv = 1.0 / n
    wips_values = [m.wips for m in results]
    mean_wips = sum(wips_values) * inv
    utilization = {
        node: ResourceUtilization(
            cpu=sum(m.utilization[node].cpu for m in results) * inv,
            disk=sum(m.utilization[node].disk for m in results) * inv,
            network=sum(m.utilization[node].network for m in results) * inv,
            memory=sum(m.utilization[node].memory for m in results) * inv,
        )
        for node in results[0].utilization
    }
    diagnostics: dict[str, float] = {}
    for key in sorted({k for m in results for k in m.diagnostics}):
        values = [m.diagnostics[key] for m in results if key in m.diagnostics]
        diagnostics[key] = sum(values) / len(values)
    per_line = {
        line: sum(m.per_line_wips[line] for m in results) * inv
        for line in results[0].per_line_wips
    }
    variance = sum((w - mean_wips) ** 2 for w in wips_values) / (n - 1)
    stddev = math.sqrt(variance)
    stderr = stddev / math.sqrt(n)
    diagnostics["replication.count"] = float(n)
    diagnostics["replication.wips_stddev"] = stddev
    diagnostics["replication.wips_stderr"] = stderr
    diagnostics["replication.wips_ci95"] = 1.96 * stderr
    for i, w in enumerate(wips_values):
        diagnostics[f"replication.{i}.wips"] = w
    return Measurement(
        wips=mean_wips,
        raw_wips=sum(m.raw_wips for m in results) * inv,
        error_rate=sum(m.error_rate for m in results) * inv,
        response_time=sum(m.response_time for m in results) * inv,
        utilization=utilization,
        diagnostics=diagnostics,
        per_line_wips=per_line,
    )


class SimulationBackend(PerformanceBackend):
    """Request-level DES implementation of the backend interface."""

    def __init__(
        self,
        iteration_spec: Optional[IterationSpec] = None,
        time_scale: float = 0.15,
        memory: Optional[MemoryModel] = None,
        navigation: bool = False,
        replications: int = 1,
        replication_jobs: Optional[int] = None,
        profile: bool = False,
    ) -> None:
        """``navigation=True`` makes each emulated browser follow the TPC-W
        navigation graph (correlated sessions) instead of sampling
        interactions i.i.d.; the long-run mix — and therefore WIPS — is
        identical (same stationary distribution).

        ``replications=R`` (R>1) measures R seed-derived independent
        iterations and merges them by batch means; ``replication_jobs``
        bounds the process fan-out (1 forces the serial in-process loop,
        which is bit-identical to the parallel merge).  ``profile=True``
        adds ``profile.*`` diagnostics (kernel entry counts, per-phase
        wall-clock)."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if replication_jobs is not None and replication_jobs < 1:
            raise ValueError("replication_jobs must be >= 1")
        base = iteration_spec or IterationSpec()
        self.spec = base.scaled(time_scale)
        self.memory = memory or MemoryModel()
        self.navigation = navigation
        self.replications = int(replications)
        self.replication_jobs = replication_jobs
        self.profile = profile
        #: Constructor kwargs a replication worker rebuilds from (one
        #: replication each, so ``replications`` is deliberately absent).
        self._init_kwargs = dict(
            iteration_spec=base,
            time_scale=time_scale,
            memory=self.memory,
            navigation=navigation,
            profile=profile,
        )
        self._context_cache: dict[tuple, WorkloadContext] = {}
        self._nav_cache: dict[str, NavigationModel] = {}
        #: The WIRT tracker of the most recent measure() call (per-type
        #: response-time percentiles for compliance reports).
        self.last_wirt: Optional[WirtTracker] = None

    def measurement_cache_token(self) -> tuple:
        """Replicated measurements live under their own cache keys.

        ``replications=1`` returns the empty token, keeping every legacy
        3-tuple cache key byte-identical (durable stores included).
        """
        if self.replications > 1:
            return ("replications", self.replications)
        return ()

    def _context(self, scenario: Scenario) -> WorkloadContext:
        # Content-keyed (not ``id()``-keyed): persistent backends outlive
        # their scenarios, and a dead catalog's id can be reused.
        key = (scenario.catalog.fingerprint(), scenario.mix.fingerprint())
        ctx = self._context_cache.get(key)
        if ctx is None:
            ctx = WorkloadContext.for_mix(scenario.mix, scenario.catalog)
            self._context_cache[key] = ctx
        return ctx

    # ------------------------------------------------------------------
    # request flows
    # ------------------------------------------------------------------
    def _static_flow(self, sim: _SimCluster, line: str,
                     proxy: ProxyServerSim, rng: np.random.Generator):
        """Fetch one embedded image: the proxy serves it from memory or
        disk, or forwards a miss to the application tier and relays it."""
        size = sim.ctx.catalog.object_size(sim.ctx.catalog.sample_object(rng))
        m = proxy.model
        cpu = proxy.cpu
        pen = proxy.memory_penalty
        outcome = proxy.classify(rng)
        yield cpu.hold(rng, m.PARSE_CPU + proxy.lookup_cpu, pen)
        if outcome == "mem":
            yield cpu.hold(rng, size / m.MEM_COPY_RATE, pen)
        elif outcome == "disk":
            yield cpu.hold(rng, m.DISK_HIT_CPU, pen)
            if rng.random() < m.DISK_HIT_IO_PROB:
                disk_s = proxy.spec.disk_seconds(size, accesses=1.0)
                yield proxy.disk.hold(rng, disk_s, pen)
        proxy.account_nic(size + 600.0)
        if outcome == "miss":
            app: AppServerSim = sim.pick(line, Role.APP, rng)  # type: ignore[assignment]
            try:
                yield from app.serve_static(rng, size)
            except QueueFullError:
                return  # a lost image degrades but does not fail the page
            yield from proxy.relay(rng, size)

    def _interaction_flow(self, sim: _SimCluster, line: str, interaction,
                          rng: np.random.Generator):
        """One interaction: the page, then its embedded images.

        Raises :class:`QueueFullError` when a pool rejects the page.
        """
        profile = PROFILES[interaction]
        proxy: ProxyServerSim = sim.pick(line, Role.PROXY, rng)  # type: ignore[assignment]
        yield NETWORK_RTT
        cacheable = rng.random() < profile.page_cacheable
        served = yield from proxy.accept_page(rng, cacheable)
        if not served:
            app: AppServerSim = sim.pick(line, Role.APP, rng)  # type: ignore[assignment]
            if cacheable:
                yield from app.serve_static(rng, profile.response_bytes)
            else:
                db: DbServerSim = sim.pick(line, Role.DB, rng)  # type: ignore[assignment]
                yield from app.serve_page(
                    rng, profile, lambda: db.run_queries(rng, profile)
                )
            yield from proxy.relay(rng, profile.response_bytes)
        # Embedded static objects, fetched concurrently.
        n = int(profile.static_objects)
        if rng.random() < profile.static_objects - n:
            n += 1
        if n:
            yield Join(sim.env, [
                self._static_flow(sim, line, proxy, rng) for _ in range(n)
            ])

    def _navigation(self, scenario: Scenario) -> NavigationModel:
        nav = self._nav_cache.get(scenario.mix.name)
        if nav is None:
            nav = NavigationModel(scenario.mix)
            self._nav_cache[scenario.mix.name] = nav
        return nav

    def _browser(self, sim: _SimCluster, line: str, scenario: Scenario,
                 sampler: MixSampler, rng: np.random.Generator,
                 meter: WipsMeter, latency: RunningStats,
                 latency_samples: list, wirt: WirtTracker):
        env = sim.env
        behavior = scenario.behavior
        nav = self._navigation(scenario) if self.navigation else None
        interaction = sampler.sample(rng)
        while True:
            yield behavior.next_think_time(rng)
            if nav is not None:
                interaction = nav.next_interaction(interaction, rng)
            else:
                interaction = sampler.sample(rng)
            start = env._now
            try:
                yield from self._interaction_flow(sim, line, interaction, rng)
            except QueueFullError:
                meter.record_error()
                continue
            if meter.window_open:
                latency.add(env._now - start)
                latency_samples.append(env._now - start)
                wirt.record(interaction, env._now - start)
            meter.record_completion(interaction)

    # ------------------------------------------------------------------
    def measure(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int = 0,
    ) -> Measurement:
        """Measure one point (see the class docstring).

        With ``replications=1`` this is a single simulated iteration;
        otherwise R seed-derived iterations merged by batch means.
        """
        if self.replications == 1:
            return self._measure_once(scenario, configuration, seed)
        return self._measure_replicated(scenario, configuration, seed)

    def _replication_seeds(self, seed: int) -> list[int]:
        """Replication 0 keeps ``seed`` itself (bit-compatible stream);
        further replications derive independent streams from it."""
        return [int(seed)] + [
            derive_seed(seed, "des-replication", i)
            for i in range(1, self.replications)
        ]

    def _measure_replicated(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int,
    ) -> Measurement:
        seeds = self._replication_seeds(seed)
        if self.replication_jobs == 1:
            results = [
                self._measure_once(scenario, configuration, s) for s in seeds
            ]
        else:
            from repro.parallel.executor import ParallelExecutor
            from repro.parallel.plan import RunSpec

            jobs = self.replication_jobs or min(
                len(seeds), os.cpu_count() or 1
            )
            executor = ParallelExecutor(jobs=jobs)
            try:
                out = executor.run(
                    [
                        RunSpec(
                            key=i,
                            fn=_replication_worker,
                            kwargs={
                                "init_kwargs": self._init_kwargs,
                                "scenario": scenario,
                                "configuration": configuration,
                                "seed": s,
                            },
                        )
                        for i, s in enumerate(seeds)
                    ]
                )
            finally:
                executor.close()
            results = [out[i] for i in range(len(seeds))]
        return _merge_replications(results)

    def _measure_once(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int = 0,
    ) -> Measurement:
        """Simulate one measurement iteration (the seed-identical path)."""
        profiling = self.profile
        t0 = _clock() if profiling else 0.0
        ctx = self._context(scenario)
        env = Environment()
        sim = _SimCluster(
            env,
            scenario.cluster,
            configuration,
            ctx,
            self.memory,
            scenario.work_lines,
        )
        rngs = RngFactory(seed).child("des")
        sampler = MixSampler(scenario.mix)

        lines = sorted(sim.lines)
        meters = {line: WipsMeter() for line in lines}
        latency = RunningStats()
        latency_samples: list[float] = []
        wirt = WirtTracker()
        share = scenario.population // len(lines)
        remainder = scenario.population - share * len(lines)
        for li, line in enumerate(lines):
            count = share + (1 if li < remainder else 0)
            for b in range(count):
                env.process(
                    self._browser(
                        sim, line, scenario, sampler,
                        rngs.get("browser", line, b),
                        meters[line], latency, latency_samples, wirt,
                    )
                )

        t1 = _clock() if profiling else 0.0
        env.run(until=self.spec.warmup)
        t2 = _clock() if profiling else 0.0
        for node in sim.nodes.values():
            node.reset_stats()
        for meter in meters.values():
            meter.open_window(env.now)
        measure_end = self.spec.warmup + self.spec.measure
        env.run(until=measure_end)
        t3 = _clock() if profiling else 0.0
        for meter in meters.values():
            meter.close_window(env.now)
        duration = self.spec.measure

        utilization: dict[str, ResourceUtilization] = {}
        diagnostics: dict[str, float] = {}
        for node_id, node in sim.nodes.items():
            utilization[node_id] = ResourceUtilization(
                cpu=node.cpu.utilization(measure_end),
                disk=node.disk.utilization(measure_end),
                network=min(
                    node.nic_bytes / duration / node.spec.nic_rate, 1.0
                ),
                memory=node.memory_bytes / node.spec.memory_bytes,
            )
            diagnostics[f"{node_id}.jobs"] = (
                node.cpu.busy_stats.mean(measure_end)
                + node.cpu.queue_stats.mean(measure_end)
            )
            diagnostics[f"{node_id}.memory_penalty"] = node.memory_penalty
        for node in sim.nodes.values():
            if isinstance(node, AppServerSim):
                diagnostics[f"{node.node_id}.http.rejected"] = float(
                    node.http_pool.rejected
                )
            if isinstance(node, DbServerSim):
                diagnostics[f"{node.node_id}.dbconn.rejected"] = float(
                    node.conn_pool.rejected
                )

        total_completed = sum(m.completed for m in meters.values())
        total_errors = sum(m.errors for m in meters.values())
        wips = total_completed / duration
        # Secondary TPC-W metrics: per-category throughput (WIPSb-/WIPSo-
        # style) and response-time percentiles.
        for category in InteractionCategory:
            rate = sum(m.category_rate(category) for m in meters.values())
            diagnostics[f"wips_{category.value}"] = rate
        if latency_samples:
            diagnostics["rt_p50"] = percentile(latency_samples, 50)
            diagnostics["rt_p95"] = percentile(latency_samples, 95)
        # TPC-W WIRT compliance (clause 5.2): a valid WIPS number requires
        # every interaction type's p90 under its limit.
        diagnostics["wirt_compliant"] = 1.0 if wirt.compliant() else 0.0
        self.last_wirt = wirt
        if profiling:
            dispatched = env.scheduled_entries - env.pending_entries
            sim_wall = (t2 - t1) + (t3 - t2)
            diagnostics["profile.build_seconds"] = t1 - t0
            diagnostics["profile.warmup_seconds"] = t2 - t1
            diagnostics["profile.measure_seconds"] = t3 - t2
            # The DES does not simulate the cool-down phase (stats are
            # frozen at window close); recorded for schema completeness.
            diagnostics["profile.cooldown_seconds"] = 0.0
            diagnostics["profile.entries_scheduled"] = float(
                env.scheduled_entries
            )
            diagnostics["profile.entries_dispatched"] = float(dispatched)
            diagnostics["profile.entries_pending"] = float(
                env.pending_entries
            )
            diagnostics["profile.fast_resumes"] = float(env.fast_resumes)
            diagnostics["profile.events_per_second"] = (
                dispatched / sim_wall if sim_wall > 0 else 0.0
            )
        attempted = total_completed + total_errors
        per_line = (
            {line: m.completed / duration for line, m in meters.items()}
            if scenario.work_lines
            else {}
        )
        return Measurement(
            wips=wips,
            raw_wips=wips,
            error_rate=total_errors / attempted if attempted else 0.0,
            response_time=latency.mean,
            utilization=utilization,
            diagnostics=diagnostics,
            per_line_wips=per_line,
        )
