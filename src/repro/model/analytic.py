"""The analytic backend: a fixed point over AMVA + pool corrections.

Solving one configuration proceeds as an outer fixed point:

1. build the demand set (server models need a per-node concurrency
   estimate, which the previous iterate supplies),
2. solve the closed network with Schweitzer AMVA,
3. layer M/M/c/K waiting/blocking for the thread and connection pools onto
   the solution (pool waits become extra per-cycle delay; blocking becomes
   failed interactions),
4. refresh the concurrency estimates from the queue lengths and pool
   occupancies, damped, and repeat until throughput stabilizes.

The result is deterministic; the configured :class:`NoiseModel` then turns
the model throughput into one noisy "measured" WIPS per seed, exactly the
signal the Harmony server consumes.

Because step 2 dominates, the backend also exposes a batched path:
:meth:`AnalyticBackend.solve_batch` runs the outer fixed point for many
configurations in lockstep, submitting every active configuration's
network to :func:`repro.model.mva.solve_mva_batch` as one vectorized
solve per outer iteration.  Each configuration's trajectory is
independent (converged ones are frozen), so batched solutions are
bit-identical to scalar ones.  :meth:`AnalyticBackend.measure_batch`
builds on it, deduplicating identical configurations (only the noise
draw depends on the seed) and consulting a per-backend LRU solution
cache keyed on ``(scenario fingerprint, configuration)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.cluster.context import WorkloadContext
from repro.tpcw.interactions import InteractionCategory
from repro.cluster.memory import MemoryModel
from repro.cluster.node import Role
from repro.cluster.topology import ClusterSpec
from repro.harmony.parameter import Configuration
from repro.model.base import (
    CacheStats,
    Measurement,
    PerformanceBackend,
    ResourceUtilization,
    Scenario,
)
from repro.model.demands import DemandBuilder, DemandSet
from repro.model.hierarchy import AggregationPlan, aggregation_plan
from repro.model.mva import MvaNetwork, MvaResult, Station, solve_mva_batch
from repro.model.noise import NoiseModel
from repro.util.rng import spawn_rng

__all__ = ["AnalyticBackend", "AnalyticSolution", "APPROXIMATIONS"]

#: Fixed per-interaction network round-trip overhead (LAN latencies).
NETWORK_RTT = 5e-3

#: Valid values of :class:`AnalyticBackend`'s ``approximation`` knob.
#:
#: - ``"exact"``       — per-node Schweitzer AMVA, the pre-scale-axis
#:   behaviour (refuses populations beyond ``max_exact_population``);
#: - ``"fluid"``       — the O(stations), population-independent
#:   mean-field solve of :mod:`repro.model.fluid`;
#: - ``"hierarchical"`` — one representative station per homogeneous
#:   replica group (:mod:`repro.model.hierarchy`), Schweitzer solve;
#: - ``"fluid+hierarchical"`` — both: tier aggregation and fluid rows;
#: - ``"auto"``        — fluid above ``fluid_population_threshold``,
#:   hierarchical at or above ``hierarchy_node_threshold`` nodes.
APPROXIMATIONS = (
    "auto",
    "exact",
    "fluid",
    "hierarchical",
    "fluid+hierarchical",
)


@dataclass(frozen=True)
class AnalyticSolution:
    """Deterministic solution for one (cluster, config, workload)."""

    throughput: float
    error_rate: float
    response_time: float
    utilization: dict[str, ResourceUtilization]
    max_memory_penalty: float
    diagnostics: dict[str, float]

    @property
    def effective_wips(self) -> float:
        """Successful interactions per second.

        In a closed workload a rejected request bounces its emulated browser
        straight back into think/retry, so rejections burn *attempts*, not
        completions: sustained throughput stays at what the pools admit
        (which the pool stations already bound).  ``error_rate`` is
        therefore reported as a health metric but does not scale WIPS.
        """
        return self.throughput


class _SolvePlan:
    """Invariant per-solve scaffolding derived from the first demand set.

    The node and pool sets — and with them the station names, the
    concurrency-independent station demands (app/db disk and NIC), and
    the refresh loop's pool/core ratios — are fixed for a whole solve.
    Deriving them once per state instead of every outer round changes
    only where they are computed, never their values, so solver results
    stay bit-identical.
    """

    __slots__ = (
        "node_names",
        "fixed_stations",
        "pool_entries",
        "sorted_pools",
        "db_refresh",
        "app_refresh",
        "dyn_frac",
    )

    def __init__(self, demand_set: DemandSet) -> None:
        node_names: list[tuple[str, str, str]] = []
        fixed: list[tuple[Station, Station] | None] = []
        app_cores: dict[str, int] = {}
        for nd in demand_set.nodes:
            names = (
                f"{nd.node_id}:cpu",
                f"{nd.node_id}:disk",
                f"{nd.node_id}:nic",
            )
            node_names.append(names)
            if nd.role is Role.PROXY:
                # Proxy disk demand tracks the memory penalty, which moves
                # with the concurrency iterate — rebuild those per round.
                fixed.append(None)
            else:
                fixed.append(
                    (
                        Station(
                            names[1], nd.disk, multiplicity=nd.multiplicity
                        ),
                        Station(
                            names[2], nd.nic, multiplicity=nd.multiplicity
                        ),
                    )
                )
            if nd.role is Role.APP:
                app_cores[nd.node_id] = nd.cpu_servers
        self.node_names = node_names
        self.fixed_stations = fixed
        pool_entries = [
            (f"{pool.node_id}:{pool.kind}", pool) for pool in demand_set.pools
        ]
        self.pool_entries = pool_entries
        db_conns = {
            pool.node_id: pool.servers
            for _, pool in pool_entries
            if pool.kind == "dbconn"
        }
        # The refresh loop walks pools in name order; precompute the
        # per-pool processor-sharing ratio (servers per core) it applies.
        self.sorted_pools = [
            (
                name,
                pool,
                max(pool.visits, 1e-9),
                max(1.0, pool.servers / app_cores[pool.node_id])
                if pool.kind in ("http", "ajp")
                else 0.0,
            )
            for name, pool in sorted(pool_entries, key=lambda entry: entry[0])
        ]
        db_refresh = []
        app_refresh = []
        for i, nd in enumerate(demand_set.nodes):
            cpu_n, disk_n, nic_n = node_names[i]
            if nd.role is Role.DB:
                db_refresh.append(
                    (
                        i,
                        cpu_n,
                        disk_n,
                        nic_n,
                        max(1.0, db_conns[nd.node_id] / nd.cpu_servers),
                        nd.multiplicity,
                    )
                )
            elif nd.role is Role.APP:
                app_refresh.append((i, nd.node_id, cpu_n, disk_n, nic_n))
        self.db_refresh = db_refresh
        self.app_refresh = app_refresh
        self.dyn_frac = demand_set.forward_dynamic / max(
            demand_set.forward_total, 1e-9
        )


class _OuterState:
    """Mutable per-configuration state of the outer fixed point."""

    __slots__ = (
        "configuration",
        "builder",
        "plan",
        "fluid",
        "agg",
        "conc",
        "holding",
        "x_prev",
        "err",
        "pool_diag",
        "demand_set",
        "mva",
        "done",
    )

    def __init__(
        self,
        cluster: ClusterSpec,
        configuration: Mapping[str, int],
        fluid: bool = False,
        agg: AggregationPlan | None = None,
    ) -> None:
        self.configuration = configuration
        # Per-solve partial evaluation of the demand derivation; created on
        # first assembly (needs the workload context the backend supplies).
        self.builder: DemandBuilder | None = None
        self.plan: _SolvePlan | None = None
        self.fluid = fluid
        self.agg = agg
        if agg is None:
            self.conc: dict[str, float] = {n: 8.0 for n in cluster.node_ids}
        else:
            self.conc = {rep: 8.0 for rep, _ in agg.groups}
        self.holding: dict[str, float] = {}
        self.x_prev = 0.0
        self.err = 0.0
        self.pool_diag: dict[str, float] = {}
        self.demand_set: DemandSet | None = None
        self.mva: MvaResult | None = None
        self.done = False


class AnalyticBackend(PerformanceBackend):
    """MVA-based testbed substitute (fast path for tuning sweeps)."""

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        memory: Optional[MemoryModel] = None,
        max_outer: int = 40,
        damping: float = 0.5,
        tol: float = 2e-4,
        solution_cache_size: int = 4096,
        prefetch_outer_budget: Optional[int] = None,
        approximation: str = "auto",
        fluid_population_threshold: int = 50_000,
        hierarchy_node_threshold: int = 16,
        max_exact_population: int = 200_000,
    ) -> None:
        if not 0.0 < damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if solution_cache_size < 0:
            raise ValueError("solution_cache_size must be >= 0 (0 disables)")
        if prefetch_outer_budget is not None and prefetch_outer_budget < 1:
            raise ValueError("prefetch_outer_budget must be >= 1 (None = full)")
        if approximation not in APPROXIMATIONS:
            raise ValueError(
                f"unknown approximation {approximation!r}; expected one of "
                f"{APPROXIMATIONS}"
            )
        if fluid_population_threshold < 1:
            raise ValueError("fluid_population_threshold must be >= 1")
        if hierarchy_node_threshold < 1:
            raise ValueError("hierarchy_node_threshold must be >= 1")
        if max_exact_population < 1:
            raise ValueError("max_exact_population must be >= 1")
        self.approximation = approximation
        self.fluid_population_threshold = fluid_population_threshold
        self.hierarchy_node_threshold = hierarchy_node_threshold
        self.max_exact_population = max_exact_population
        self.noise = noise if noise is not None else NoiseModel()
        self.memory = memory or MemoryModel()
        self.max_outer = max_outer
        self.damping = damping
        self.tol = tol
        self.solution_cache_size = solution_cache_size
        # Speculative prefetches abandon rows whose outer fixed point has
        # not converged within this many rounds (None = run to max_outer).
        # Abandoned rows are simply not cached; if later committed they
        # solve at the ordinary serial price, so results are unaffected.
        # Off by default: the TPC-W fixed point usually *exhausts*
        # max_outer rather than converging (the exhausted last iterate is
        # the solution), so a budget below max_outer abandons nearly every
        # row — the knob only pays on models where early convergence is
        # the norm and stragglers the exception.
        self.prefetch_outer_budget = prefetch_outer_budget
        self._context_cache: dict[tuple, WorkloadContext] = {}
        # Deterministic-solution memo: (scenario fp, config) → solution.
        # The solve is seed-independent (only the noise draw varies), so
        # re-measuring a configuration on fresh seeds costs one solve.
        self._solution_cache: OrderedDict[tuple, AnalyticSolution] = OrderedDict()
        self._solution_hits = 0
        self._solution_misses = 0
        self._solution_shared_hits = 0

    # ------------------------------------------------------------------
    def _context(self, scenario: Scenario) -> WorkloadContext:
        # Keyed by content, not object identity: a persistent backend
        # outlives the scenarios it serves, and ``id()`` of a dead catalog
        # can be reused by an unrelated one.
        key = (scenario.catalog.fingerprint(), scenario.mix.fingerprint())
        ctx = self._context_cache.get(key)
        if ctx is None:
            ctx = WorkloadContext.for_mix(scenario.mix, scenario.catalog)
            self._context_cache[key] = ctx
        return ctx

    def resolve_modes(
        self, cluster: ClusterSpec, population: int
    ) -> tuple[bool, bool]:
        """What the ``approximation`` policy does for this solve.

        Returns ``(use_fluid, use_hierarchical)``.  ``"auto"`` engages
        the fluid solver once the population reaches
        ``fluid_population_threshold`` (below it Schweitzer is both cheap
        and more accurate) and tier aggregation once the cluster reaches
        ``hierarchy_node_threshold`` nodes (below it there is nothing
        worth collapsing).  ``"exact"`` refuses populations beyond
        ``max_exact_population`` outright — at that scale the Schweitzer
        fixed point needs thousands of iterations per outer round and a
        tuning run would take hours; the error names the knobs to turn
        instead of letting the caller find out the slow way.
        """
        mode = self.approximation
        if mode == "exact":
            if population > self.max_exact_population:
                raise ValueError(
                    f"approximation='exact' refuses population="
                    f"{population} (> max_exact_population="
                    f"{self.max_exact_population}): the exact solve cost "
                    f"grows with N and this would effectively hang.  Use "
                    f"approximation='fluid' (or 'auto') for large "
                    f"populations, or raise max_exact_population if you "
                    f"really mean it."
                )
            return False, False
        if mode == "auto":
            return (
                population >= self.fluid_population_threshold,
                cluster.num_nodes >= self.hierarchy_node_threshold,
            )
        return "fluid" in mode, "hierarchical" in mode

    def _mode_tag(self, cluster: ClusterSpec, population: int) -> tuple:
        """Solution-key suffix identifying the resolved approximation.

        Empty when the solve resolves to the exact path, so exact-mode
        keys — including every key minted before the scale axis existed —
        are unchanged and warm caches stay valid.  Non-exact solves get a
        distinct key: a shared store serving both an exact and a fluid
        consumer must never hand one the other's solution.
        """
        fluid, hier = self.resolve_modes(cluster, population)
        if not fluid and not hier:
            return ()
        return (("approx", fluid, hier),)

    def solve(
        self,
        cluster: ClusterSpec,
        configuration: Mapping[str, int],
        ctx: WorkloadContext,
        population: int,
        think_time: float,
    ) -> AnalyticSolution:
        """Deterministic model solution for one sub-system.

        Thread and connection pools enter the MVA as multi-server stations
        whose per-interaction demand is ``visits × holding time``, where the
        holding time — how long one request keeps a thread/connection — is
        the downstream residence computed by the *previous* outer iterate.
        A saturated pool then throttles throughput and inflates response
        time the way a real connector does, instead of mass-rejecting.
        Requests are only rejected when the pool's queue exceeds its backlog
        (``acceptCount``); the excess fraction becomes failed interactions.

        (This counts a request's downstream service once in the downstream
        stations and once inside the pool-station holding time; the
        double-count inflates response time by at most the pool holding,
        which is small against the 7 s think time away from saturation and
        is the standard price of this flow-equivalent approximation.)

        The ``approximation`` policy applies here as everywhere: above
        the auto thresholds (or under a forced mode) the inner network is
        solved fluid and/or tier-aggregated; see :data:`APPROXIMATIONS`.
        """
        (sol,) = self.solve_tasks_multi(
            [(cluster, configuration, population, ctx, think_time)]
        )
        assert sol is not None  # no outer_budget → solved
        return sol

    def solve_batch(
        self,
        cluster: ClusterSpec,
        configurations: Sequence[Mapping[str, int]],
        ctx: WorkloadContext,
        population: int,
        think_time: float,
    ) -> list[AnalyticSolution]:
        """Solve many configurations of one scenario in lockstep.

        Each outer iteration submits every still-active configuration's
        network as one :func:`solve_mva_batch` call; configurations whose
        outer fixed point has converged are frozen.  The per-configuration
        trajectories are exactly those of :meth:`solve` (the batched MVA is
        bit-identical per row), so the returned solutions equal the scalar
        ones bit for bit.
        """
        return self.solve_tasks(
            [(cluster, cfg, population) for cfg in configurations],
            ctx,
            think_time,
        )

    def solve_tasks(
        self,
        tasks: Sequence[tuple[ClusterSpec, Mapping[str, int], int]],
        ctx: WorkloadContext,
        think_time: float,
        outer_budget: Optional[int] = None,
    ) -> list[Optional[AnalyticSolution]]:
        """Solve heterogeneous ``(cluster, configuration, population)`` tasks
        in lockstep — one :func:`solve_mva_batch` call per outer iteration.

        This generalizes :meth:`solve_batch` to tasks on *different*
        (sub-)clusters and populations, which is what a partitioned
        scenario's work lines and a speculative cross-group frontier need.
        Each task's trajectory is independent and bit-identical to
        :meth:`solve` on the same task.

        Every size runs through :func:`solve_mva_batch`: a group of a
        few rows (per method and station count; ``_ROW_KERNEL_MAX`` in
        :mod:`repro.model.mva`) runs its scalar-python row kernel, and a
        larger Schweitzer group hands its last few active rows to the
        same row loop, so one-task sets pay no per-call array overhead.
        Identical results either way — the kernels are bit-identical by
        contract.

        ``outer_budget`` caps the outer rounds *without* compromising
        results: a task whose fixed point converges within the budget
        yields the exact :meth:`solve` solution (the convergence round is
        intrinsic to the task — lockstep freezing changes which rounds
        run, never their values), and a task that does not is returned as
        ``None`` rather than as a different iterate.  Prefetch paths use
        this to abandon straggler speculation cheaply; measurement paths
        leave it ``None`` (run to ``max_outer``, every entry solved).
        """
        return self.solve_tasks_multi(
            [
                (cluster, cfg, population, ctx, think_time)
                for cluster, cfg, population in tasks
            ],
            outer_budget=outer_budget,
        )

    def solve_tasks_multi(
        self,
        tasks: Sequence[
            tuple[ClusterSpec, Mapping[str, int], int, WorkloadContext, float]
        ],
        outer_budget: Optional[int] = None,
    ) -> list[Optional[AnalyticSolution]]:
        """Lockstep-solve tasks that may span *different workloads*.

        Each task is ``(cluster, configuration, population, workload
        context, think time)`` — the fully-qualified input of one
        deterministic solve.  Where :meth:`solve_tasks` fixes one
        ``(ctx, think)`` pair for the whole batch, this form lets one
        :func:`solve_mva_batch` call fuse tasks from unrelated scenarios:
        all three Figure-4 workload mixes, or the pending solves of every
        experiment a shared execution engine is currently draining.  Per
        task it is bit-identical to :meth:`solve` (lockstep freezing
        changes which rounds run, never their values); ``outer_budget``
        behaves exactly as in :meth:`solve_tasks`.
        """
        rounds = self.max_outer if outer_budget is None else min(
            outer_budget, self.max_outer
        )
        budgeted = rounds < self.max_outer
        states = []
        for cluster, cfg, population, _, _ in tasks:
            fluid, hier = self.resolve_modes(cluster, population)
            agg: AggregationPlan | None = None
            if hier:
                plan = aggregation_plan(cluster, cfg)
                if not plan.is_trivial:
                    agg = plan
            states.append(_OuterState(cluster, cfg, fluid=fluid, agg=agg))
        pairs = list(zip(states, tasks))
        for _ in range(rounds):
            active = [(st, t) for st, t in pairs if not st.done]
            if not active:
                break
            networks = [
                MvaNetwork(
                    tuple(self._assemble_stations(st, cluster, ctx)),
                    population,
                    think_time,
                    NETWORK_RTT,
                    method="fluid" if st.fluid else "schweitzer",
                )
                for st, (cluster, _, population, ctx, think_time) in active
            ]
            for (st, _), mva in zip(active, solve_mva_batch(networks)):
                st.mva = mva
                if self._refresh_state(st):
                    st.done = True
        return [
            None if budgeted and not st.done else self._finalize_state(st)
            for st in states
        ]

    def _solve_cold(
        self,
        tasks: Sequence[
            tuple[ClusterSpec, Mapping[str, int], int, WorkloadContext, float]
        ],
        outer_budget: Optional[int] = None,
    ) -> list[Optional[AnalyticSolution]]:
        """Every cold deterministic solve funnels through this one hook.

        All measurement and prefetch paths route their cache misses here
        (as :meth:`solve_tasks_multi` task tuples) instead of calling the
        solvers directly.  The default is a plain lockstep batch; the
        shared execution engine overrides it to rendezvous cold solves
        from concurrently-running specs into cross-experiment mega-batches.
        Overrides must preserve the contract: the returned list matches
        ``tasks`` element-wise and each entry equals what
        :meth:`solve_tasks_multi` would have produced (``None`` only under
        an ``outer_budget``).
        """
        return self.solve_tasks_multi(tasks, outer_budget=outer_budget)

    # ------------------------------------------------------------------
    def _assemble_stations(
        self, state: _OuterState, cluster: ClusterSpec, ctx: WorkloadContext
    ) -> list[Station]:
        """One outer iteration's network from the state's current iterate."""
        if state.builder is None:
            state.builder = DemandBuilder(
                cluster,
                state.configuration,
                ctx,
                self.memory,
                groups=state.agg.groups if state.agg is not None else None,
            )
        demand_set = state.builder.build(state.conc)
        state.demand_set = demand_set
        plan = state.plan
        if plan is None:
            plan = state.plan = _SolvePlan(demand_set)
        stations = []
        holding = state.holding
        for nd, names, fixed in zip(
            demand_set.nodes, plan.node_names, plan.fixed_stations
        ):
            stations.append(
                Station(names[0], nd.cpu, nd.cpu_servers, nd.multiplicity)
            )
            if fixed is None:
                stations.append(
                    Station(names[1], nd.disk, multiplicity=nd.multiplicity)
                )
                stations.append(
                    Station(names[2], nd.nic, multiplicity=nd.multiplicity)
                )
            else:
                stations.extend(fixed)
        for name, pool in plan.pool_entries:
            stations.append(
                Station(
                    name,
                    pool.visits * holding.get(name, 0.02),
                    pool.servers,
                    pool.multiplicity,
                )
            )
        return stations

    def _refresh_state(self, state: _OuterState) -> bool:
        """Fold one MVA solution back into the outer iterate.

        Returns True when the outer fixed point has converged.
        """
        demand_set = state.demand_set
        mva = state.mva
        plan = state.plan
        assert demand_set is not None and mva is not None and plan is not None
        holding = state.holding
        conc = state.conc
        x = mva.throughput
        nodes = demand_set.nodes
        residence = mva.residence

        # --- refresh pool holding times from downstream residence ------
        fwd_dyn = demand_set.forward_dynamic
        db_resid = 0.0
        db_resid_bound = 0.0
        for i, cpu_n, disk_n, nic_n, conn_ratio, db_mult in plan.db_refresh:
            nd = nodes[i]
            db_resid += (
                residence[cpu_n] + residence[disk_n] + residence[nic_n]
            ) * db_mult
            db_resid_bound += (nd.cpu + nd.disk + nd.nic) * conn_ratio * db_mult
        # Same processor-sharing bound as the app pools: at most
        # ``max_connections`` requests can be inside a database node.
        db_resid = min(db_resid, db_resid_bound)
        db_per_page = db_resid / fwd_dyn if fwd_dyn > 1e-9 else 0.0
        app_resid = {}
        app_demand = {}
        for i, node_id, cpu_n, disk_n, nic_n in plan.app_refresh:
            nd = nodes[i]
            app_resid[node_id] = (
                residence[cpu_n] + residence[disk_n] + residence[nic_n]
            )
            app_demand[node_id] = nd.cpu + nd.disk + nd.nic

        err = 0.0
        pool_diag: dict[str, float] = {}
        pool_queue: dict[str, float] = {}
        d = self.damping
        holding_drift = 0.0
        for name, pool, visits, ps_ratio in plan.sorted_pools:
            # The MVA piles *all* excess population onto the bottleneck
            # station, so the raw residence overstates how long one of a
            # pool's P threads actually holds local resources: with at
            # most P requests inside the node, per-request residence is
            # bounded by processor sharing among P threads.  Cap the
            # MVA-derived holding by that bound — this is what makes a
            # CPU-saturated node throttle at its CPU capacity instead of
            # oscillating between CPU-limited and pool-limited regimes.
            if pool.kind in ("http", "ajp"):
                per_req = app_resid[pool.node_id] / visits
                d_req = app_demand[pool.node_id] / visits
                ps_bound = d_req * ps_ratio
                local = min(per_req, ps_bound)
                if pool.kind == "http":
                    target = local + plan.dyn_frac * db_per_page
                else:
                    target = local + db_per_page
            else:  # dbconn: holding is the database residence per page
                target = db_per_page
            previous = holding.get(name, 0.02)
            holding[name] = (1 - d) * previous + d * target
            holding_drift = max(
                holding_drift,
                abs(holding[name] - previous) / max(holding[name], 1e-6),
            )
            # Backlog overflow → rejected requests → failed interactions.
            q = mva.queue[name]
            waiting = max(0.0, q - pool.servers)
            backlog = pool.capacity - pool.servers
            over = max(0.0, waiting - backlog)
            reject = over / q if q > 1e-9 else 0.0
            err += pool.visits * reject * pool.multiplicity
            pool_diag[f"{pool.node_id}.{pool.kind}.util"] = mva.utilization[name]
            pool_diag[f"{pool.node_id}.{pool.kind}.reject"] = reject
            pool_queue.setdefault(pool.node_id, 0.0)
            pool_queue[pool.node_id] = max(pool_queue[pool.node_id], q)
        state.err = min(err, 0.95)
        state.pool_diag = pool_diag

        # --- refresh concurrency estimates ----------------------------
        for nd in demand_set.nodes:
            q = (
                mva.queue[f"{nd.node_id}:cpu"]
                + mva.queue[f"{nd.node_id}:disk"]
                + mva.queue[f"{nd.node_id}:nic"]
            )
            target = max(pool_queue.get(nd.node_id, 0.0), q, 1.0)
            conc[nd.node_id] = (1 - d) * conc[nd.node_id] + d * target

        converged = (
            abs(x - state.x_prev) <= self.tol * max(x, 1e-9)
            and holding_drift <= 100 * self.tol
        )
        state.x_prev = x
        return converged

    def _finalize_state(self, state: _OuterState) -> AnalyticSolution:
        """Turn the converged (or exhausted) iterate into a solution."""
        demand_set = state.demand_set
        mva = state.mva
        assert demand_set is not None and mva is not None
        x = state.x_prev

        utilization: dict[str, ResourceUtilization] = {}
        max_penalty = 1.0
        for nd in demand_set.nodes:
            utilization[nd.node_id] = ResourceUtilization(
                cpu=min(x * nd.cpu / nd.cpu_servers, 1.0),
                disk=min(x * nd.disk, 1.0),
                network=min(x * nd.nic, 1.0),
                memory=nd.memory_bytes / nd.memory_capacity,
            )
            max_penalty = max(max_penalty, nd.memory_penalty)

        diagnostics = dict(demand_set.diagnostics)
        # Per-node load facts for the §IV reconfiguration algorithm:
        # ``N_i`` (jobs resident on node i) and ``A_i`` (average process time).
        for nd in demand_set.nodes:
            diagnostics[f"{nd.node_id}.jobs"] = state.conc[nd.node_id]
            diagnostics[f"{nd.node_id}.service_time"] = nd.cpu + nd.disk + nd.nic
            diagnostics[f"{nd.node_id}.memory_penalty"] = nd.memory_penalty
        diagnostics.update(state.pool_diag)
        diagnostics["forward_dynamic"] = demand_set.forward_dynamic
        diagnostics["forward_static"] = demand_set.forward_static
        diagnostics["solver.fluid"] = 1.0 if state.fluid else 0.0
        agg = state.agg
        diagnostics["solver.aggregated_nodes"] = (
            float(agg.num_nodes - len(agg.groups)) if agg is not None else 0.0
        )
        if agg is not None:
            # Expand the representative's per-node outputs onto every
            # aggregated-away member: replicas are identical by
            # construction, and downstream consumers — the §IV
            # reconfiguration policy above all — address nodes
            # individually (utilization, ``{node}.jobs``,
            # ``{node}.service_time``, pool diagnostics).
            for rep, rest in agg.expansions():
                rep_util = utilization[rep]
                prefix = f"{rep}."
                rep_items = [
                    (key[len(prefix):], value)
                    for key, value in sorted(diagnostics.items())
                    if key.startswith(prefix)
                ]
                for member in rest:
                    utilization[member] = rep_util
                    for suffix, value in rep_items:
                        diagnostics[f"{member}.{suffix}"] = value
        return AnalyticSolution(
            throughput=x,
            error_rate=state.err,
            response_time=mva.response_time,
            utilization=utilization,
            max_memory_penalty=max_penalty,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # Solution memoization (deterministic part only; noise is per seed)

    def _solution_key(
        self, scenario: Scenario, configuration: Mapping[str, int]
    ) -> tuple:
        return (
            scenario.fingerprint(),
            tuple(sorted(configuration.items())),
        ) + self._mode_tag(scenario.cluster, scenario.population)

    def _solution_get(self, key: tuple) -> Optional[AnalyticSolution]:
        if self.solution_cache_size == 0:
            return None
        sol = self._solution_cache.get(key)
        if sol is None:
            self._solution_misses += 1
            return None
        self._solution_hits += 1
        self._solution_cache.move_to_end(key)
        return sol

    def _solution_peek(self, key: tuple) -> Optional[AnalyticSolution]:
        """Cache probe without touching counters or LRU order.

        Used by prefetching, whose probes would otherwise distort the
        hit/miss statistics reported for real measurements.
        """
        if self.solution_cache_size == 0:
            return None
        return self._solution_cache.get(key)

    def _solution_put(self, key: tuple, solution: AnalyticSolution) -> None:
        if self.solution_cache_size == 0:
            return
        self._solution_cache[key] = solution
        while len(self._solution_cache) > self.solution_cache_size:
            self._solution_cache.popitem(last=False)

    def export_solutions(self) -> list[tuple[tuple, AnalyticSolution]]:
        """Snapshot of the deterministic-solution memo.

        Worker processes solving a speculative frontier chunk export their
        (fresh, thus exactly-the-chunk) memo; the parent absorbs it.
        Solutions are deterministic, so shipping them across processes is
        bit-safe.
        """
        return list(self._solution_cache.items())

    def absorb_solutions(
        self, items: Sequence[tuple[tuple, AnalyticSolution]]
    ) -> int:
        """Merge solutions solved elsewhere; returns how many were new."""
        if self.solution_cache_size == 0:
            return 0
        added = 0
        for key, sol in items:
            if key not in self._solution_cache:
                self._solution_put(key, sol)
                added += 1
        return added

    def _solve_cached(
        self,
        scenario: Scenario,
        configuration: Configuration,
        ctx: WorkloadContext,
        think: float,
    ) -> AnalyticSolution:
        key = self._solution_key(scenario, configuration)
        sol = self._solution_get(key)
        if sol is None:
            (sol,) = self._solve_cold(
                [(scenario.cluster, configuration, scenario.population, ctx, think)]
            )
            assert sol is not None  # no outer_budget → every task solved
            self._solution_put(key, sol)
        return sol

    @property
    def solution_cache_stats(self) -> CacheStats:
        """Hit/miss/size counters of the deterministic-solution memo."""
        return CacheStats(
            hits=self._solution_hits,
            misses=self._solution_misses,
            size=len(self._solution_cache),
            shared_hits=self._solution_shared_hits,
        )

    # ------------------------------------------------------------------
    def _subset_config(
        self, configuration: Mapping[str, int], node_ids: list[str]
    ) -> Configuration:
        prefixes = tuple(f"{n}." for n in node_ids)
        return Configuration(
            {
                k: v
                for k, v in sorted(configuration.items())
                if k.startswith(prefixes)
            }
        )

    def _line_tasks(
        self, scenario: Scenario, configuration: Configuration
    ) -> list[tuple[str, tuple, ClusterSpec, Configuration, int]]:
        """The per-work-line solve tasks of one partitioned measurement.

        Each entry is ``(line_id, solution key, sub-cluster, sub-config,
        sub-population)`` in sorted line order.  A line's solve depends only
        on its own sub-configuration, so the solution key is per line —
        this is what lets speculative frontiers that vary one group's
        fragment reuse every other line's solution.
        """
        lines = scenario.work_lines
        assert lines is not None
        share = scenario.population // len(lines)
        remainder = scenario.population - share * len(lines)
        tasks = []
        for i, (line_id, node_ids) in enumerate(sorted(lines.items())):
            placements = [scenario.cluster.placement(n) for n in node_ids]
            sub_cluster = ClusterSpec(placements, name=line_id)
            sub_pop = max(share + (1 if i < remainder else 0), 1)
            sub_cfg = self._subset_config(configuration, list(node_ids))
            key = (
                scenario.fingerprint(),
                line_id,
                sub_pop,
                tuple(sorted(sub_cfg.items())),
            ) + self._mode_tag(sub_cluster, sub_pop)
            tasks.append((line_id, key, sub_cluster, sub_cfg, sub_pop))
        return tasks

    def _measure_partitioned(
        self,
        scenario: Scenario,
        seed: int,
        extremeness: float,
        tasks: Sequence[tuple[str, tuple, ClusterSpec, Configuration, int]],
        solutions: Mapping[tuple, AnalyticSolution],
    ) -> Measurement:
        """Aggregate per-line solutions into one partitioned measurement."""
        per_line: dict[str, float] = {}
        utilization: dict[str, ResourceUtilization] = {}
        total_raw = 0.0
        total_wips = 0.0
        err_acc = 0.0
        resp_acc = 0.0
        diagnostics: dict[str, float] = {}
        for line_id, key, _, _, _ in tasks:
            sol = solutions[key]
            noisy = self.noise.apply(
                sol.effective_wips,
                extremeness,
                sol.max_memory_penalty,
                spawn_rng(seed, "line", line_id),
            )
            per_line[line_id] = noisy
            total_raw += sol.throughput
            total_wips += noisy
            err_acc += sol.error_rate * sol.throughput
            resp_acc += sol.response_time * sol.throughput
            utilization.update(sol.utilization)
            diagnostics.update(
                {
                    f"{line_id}.{k}": v
                    for k, v in sorted(sol.diagnostics.items())
                }
            )
        error_rate = err_acc / total_raw if total_raw > 0 else 0.0
        response = resp_acc / total_raw if total_raw > 0 else 0.0
        return Measurement(
            wips=total_wips,
            raw_wips=total_raw,
            error_rate=error_rate,
            response_time=response,
            utilization=utilization,
            diagnostics=diagnostics,
            per_line_wips=per_line,
        )

    def measure(
        self,
        scenario: Scenario,
        configuration: Configuration,
        seed: int = 0,
    ) -> Measurement:
        """One noisy measurement iteration (see :class:`PerformanceBackend`)."""
        ctx = self._context(scenario)
        think = scenario.behavior.effective_mean_think_time
        extremeness = scenario.cluster.full_space().extremeness(configuration)
        rng = spawn_rng(seed, "analytic-measure")

        if scenario.work_lines:
            tasks = self._line_tasks(scenario, configuration)
            solutions: dict[tuple, AnalyticSolution] = {}
            cold: OrderedDict[tuple, tuple] = OrderedDict()
            for _, key, sub_cluster, sub_cfg, sub_pop in tasks:
                if key in solutions or key in cold:
                    continue
                sol = self._solution_get(key)
                if sol is None:
                    cold[key] = (sub_cluster, sub_cfg, sub_pop, ctx, think)
                else:
                    solutions[key] = sol
            if cold:
                for key, sol in zip(cold, self._solve_cold(list(cold.values()))):
                    assert sol is not None
                    self._solution_put(key, sol)
                    solutions[key] = sol
            return self._measure_partitioned(
                scenario, seed, extremeness, tasks, solutions
            )

        sol = self._solve_cached(scenario, configuration, ctx, think)
        wips = self.noise.apply(
            sol.effective_wips, extremeness, sol.max_memory_penalty, rng
        )
        diagnostics = dict(sol.diagnostics)
        # Secondary TPC-W metrics: the category split of the throughput
        # (interactions are sampled i.i.d. from the mix, so the long-run
        # category rates are the mix's Browse/Order fractions).
        for category in InteractionCategory:
            diagnostics[f"wips_{category.value}"] = (
                wips * scenario.mix.category_fraction(category)
            )
        return Measurement(
            wips=wips,
            raw_wips=sol.throughput,
            error_rate=sol.error_rate,
            response_time=sol.response_time,
            utilization=sol.utilization,
            diagnostics=diagnostics,
        )

    def measure_batch(
        self,
        scenario: Scenario,
        requests: Sequence[tuple[Configuration, int]],
    ) -> list[Measurement]:
        """Measure many ``(configuration, seed)`` points in one MVA batch.

        The deterministic solve depends only on the configuration, so the
        distinct configurations are deduplicated, looked up in the solution
        memo, and the misses submitted to :meth:`solve_batch` as a single
        lockstep batch; each request then draws its own noise exactly as
        :meth:`measure` would.  Results are bit-identical to the serial
        loop.  Partitioned (work-line) scenarios decompose into per-line
        tasks, deduplicate them across requests, and solve the cold ones in
        one :meth:`solve_tasks` batch.
        """
        ctx = self._context(scenario)
        think = scenario.behavior.effective_mean_think_time
        if scenario.work_lines:
            task_lists: dict[Configuration, list] = {}
            solutions: dict[tuple, AnalyticSolution] = {}
            cold: OrderedDict[tuple, tuple] = OrderedDict()
            for cfg, _ in requests:
                if cfg in task_lists:
                    continue
                tasks = self._line_tasks(scenario, cfg)
                task_lists[cfg] = tasks
                for _, key, sub_cluster, sub_cfg, sub_pop in tasks:
                    if key in solutions or key in cold:
                        continue
                    sol = self._solution_get(key)
                    if sol is None:
                        cold[key] = (sub_cluster, sub_cfg, sub_pop, ctx, think)
                    else:
                        solutions[key] = sol
            if cold:
                solved = self._solve_cold(list(cold.values()))
                for key, sol in zip(cold, solved):
                    assert sol is not None
                    self._solution_put(key, sol)
                    solutions[key] = sol
            out = []
            for cfg, seed in requests:
                extremeness = scenario.cluster.full_space().extremeness(cfg)
                out.append(
                    self._measure_partitioned(
                        scenario, seed, extremeness, task_lists[cfg], solutions
                    )
                )
            return out

        order: dict[Configuration, int] = {}
        for cfg, _ in requests:
            if cfg not in order:
                order[cfg] = len(order)
        distinct = list(order)
        solutions: list[Optional[AnalyticSolution]] = [None] * len(distinct)
        to_solve: list[int] = []
        for i, cfg in enumerate(distinct):
            sol = self._solution_get(self._solution_key(scenario, cfg))
            if sol is None:
                to_solve.append(i)
            else:
                solutions[i] = sol
        if to_solve:
            solved = self._solve_cold(
                [
                    (scenario.cluster, distinct[i], scenario.population, ctx, think)
                    for i in to_solve
                ]
            )
            for i, sol in zip(to_solve, solved):
                assert sol is not None
                solutions[i] = sol
                self._solution_put(
                    self._solution_key(scenario, distinct[i]), sol
                )

        out = []
        for cfg, seed in requests:
            sol = solutions[order[cfg]]
            assert sol is not None
            extremeness = scenario.cluster.full_space().extremeness(cfg)
            rng = spawn_rng(seed, "analytic-measure")
            wips = self.noise.apply(
                sol.effective_wips, extremeness, sol.max_memory_penalty, rng
            )
            diagnostics = dict(sol.diagnostics)
            for category in InteractionCategory:
                diagnostics[f"wips_{category.value}"] = (
                    wips * scenario.mix.category_fraction(category)
                )
            out.append(
                Measurement(
                    wips=wips,
                    raw_wips=sol.throughput,
                    error_rate=sol.error_rate,
                    response_time=sol.response_time,
                    utilization=sol.utilization,
                    diagnostics=diagnostics,
                )
            )
        return out

    def prefetch_configs(
        self,
        scenario: Scenario,
        configurations: Sequence[Configuration],
    ) -> int:
        """Warm the solution memo for a speculative frontier in one batch.

        The deterministic solve needs no seed, so a frontier can be solved
        before anyone commits to measuring it: later :meth:`measure` calls
        for any of these configurations (under *any* seed) hit the memo.
        Partitioned scenarios decompose into per-line tasks first, so a
        frontier that varies one group's fragment costs one sub-solve per
        *new* fragment, not per full configuration.  Cache probes bypass
        the hit/miss counters (see :meth:`_solution_peek`), and nothing
        here affects measured values — only their latency.  Straggler
        tasks whose fixed point misses ``prefetch_outer_budget`` rounds
        are abandoned uncached (see :meth:`solve_tasks`) instead of
        burning the full ``max_outer`` on a solution nobody may ask for.
        Returns the number of cold solves completed and cached.
        """
        if self.solution_cache_size == 0 or not configurations:
            return 0
        ctx = self._context(scenario)
        think = scenario.behavior.effective_mean_think_time
        cold: OrderedDict[tuple, tuple] = OrderedDict()
        if scenario.work_lines:
            for cfg in configurations:
                for _, key, sub_cluster, sub_cfg, sub_pop in self._line_tasks(
                    scenario, cfg
                ):
                    if key not in cold and self._solution_peek(key) is None:
                        cold[key] = (sub_cluster, sub_cfg, sub_pop, ctx, think)
        else:
            for cfg in configurations:
                key = self._solution_key(scenario, cfg)
                if key not in cold and self._solution_peek(key) is None:
                    cold[key] = (scenario.cluster, cfg, scenario.population, ctx, think)
        if not cold:
            return 0
        solved = self._solve_cold(
            list(cold.values()),
            outer_budget=self.prefetch_outer_budget,
        )
        stored = 0
        for key, sol in zip(cold, solved):
            if sol is not None:
                self._solution_put(key, sol)
                stored += 1
        return stored
