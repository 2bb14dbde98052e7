"""Assemble per-node station demands from the server models.

Given a cluster layout, a full configuration, and a workload context, this
module produces what the MVA solver consumes: per-node CPU / disk / NIC
demands (scaled by each node's traffic share and inflated by its memory
pressure), the finite pools to correct for, and the tier-to-tier forwarding
fractions.  Load balancing is even within a tier — the paper's duplication
assumption (b): "the workload [is] evenly distributed among all the servers
in the same tier".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.cluster.appserver import AppServerModel
from repro.cluster.context import WorkloadContext
from repro.cluster.database import DatabaseModel
from repro.cluster.memory import MemoryModel
from repro.cluster.node import Role
from repro.cluster.proxy import ProxyModel
from repro.cluster.topology import ClusterSpec
from repro.harmony.parameter import Configuration

__all__ = [
    "NodeDemand",
    "PoolSpec",
    "DemandSet",
    "DemandBuilder",
    "build_demands",
]


@dataclass(frozen=True)
class NodeDemand:
    """Per-interaction demands of one node (share-scaled, pressure-inflated).

    ``multiplicity`` > 1 marks an aggregated entry: one representative
    standing in for that many identical replicas (hierarchical MVA —
    see :mod:`repro.model.hierarchy`).  Demands describe a *single*
    replica; solvers weight network-level sums by the multiplicity.
    """

    node_id: str
    role: Role
    cpu: float
    disk: float
    nic: float
    cpu_servers: int
    memory_bytes: float
    memory_capacity: float
    memory_penalty: float
    multiplicity: int = 1


@dataclass(frozen=True)
class PoolSpec:
    """One finite pool: servers, total capacity, and traffic through it."""

    node_id: str
    kind: str  # "http" | "ajp" | "dbconn"
    servers: int
    capacity: int
    #: Requests per *interaction* arriving at this node's pool.
    visits: float
    #: Identical replica pools this entry stands in for (aggregation).
    multiplicity: int = 1


@dataclass(frozen=True)
class DemandSet:
    """Everything the analytic solver needs for one configuration."""

    nodes: tuple[NodeDemand, ...]
    pools: tuple[PoolSpec, ...]
    #: Dynamic pages reaching the app tier, per interaction.
    forward_dynamic: float
    #: Static requests (objects + cacheable-page misses) reaching the app
    #: tier, per interaction.
    forward_static: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def forward_total(self) -> float:
        """All requests reaching the app tier, per interaction."""
        return self.forward_dynamic + self.forward_static


#: MySQL has no configurable accept backlog: a connection beyond
#: ``max_connections`` is refused after a small TCP backlog.
DB_BACKLOG = 10


class DemandBuilder:
    """Partially-evaluated :func:`build_demands` for one ``(cluster, config)``.

    The analytic backend's outer fixed point re-derives the demand set
    every round with only the per-node *concurrency* estimates changed.
    The node lists, per-node configuration slices and model partial
    evaluations (see the models' ``partial`` methods) are fixed for the
    whole solve, as is everything downstream of them that concurrency
    cannot reach: the proxy forwarding fractions, the pool specs, and —
    for app and database nodes, whose memory footprint is
    concurrency-independent — the memory penalties and disk/NIC demands.

    :meth:`build` performs exactly the operations of
    :func:`build_demands` in the same order on the same values, so the
    demand sets (and therefore the solver's results) are bit-identical —
    hoisting changes where invariants are computed, never what they are.
    """

    __slots__ = (
        "cluster",
        "config",
        "ctx",
        "memory_model",
        "forward_dynamic",
        "forward_static",
        "_proxies",
        "_apps",
        "_dbs",
        "_pools",
        "_base_diag",
        "_db_diag",
        "_share_p",
        "_share_a",
        "_share_d",
    )

    def __init__(
        self,
        cluster: ClusterSpec,
        config: Mapping[str, int],
        ctx: WorkloadContext,
        memory_model: MemoryModel | None = None,
        groups: Sequence[tuple[str, Sequence[str]]] | None = None,
    ) -> None:
        # One Configuration for every node_config() below: its per-node
        # slices are split once, not once per node.
        config = Configuration.coerce(config)
        self.cluster = cluster
        self.config = config
        self.ctx = ctx
        memory_model = memory_model or MemoryModel()
        self.memory_model = memory_model

        # ``groups`` (hierarchical aggregation — repro.model.hierarchy)
        # replaces per-node iteration with one representative per replica
        # group, carrying the member count as a multiplicity.  Without
        # groups every node is its own singleton, which reproduces the
        # ungrouped arithmetic exactly (multiplying by int 1 is exact).
        if groups is None:
            members: dict[Role, list[tuple[str, int]]] = {
                role: [(n, 1) for n in cluster.nodes_in(role)]
                for role in Role
            }
        else:
            members = {role: [] for role in Role}
            for rep, group in groups:
                members[cluster.role_of(rep)].append((rep, len(group)))

        # --- proxy tier: partials + invariant forwarding fractions -------
        proxy_members = members[Role.PROXY]
        share_p = 1.0 / sum(m for _, m in proxy_members)
        self._share_p = share_p
        self._proxies = []
        fwd_dynamic = 0.0
        fwd_static = 0.0
        self._base_diag: dict[str, float] = {}
        for node_id, mult in proxy_members:
            spec = cluster.placement(node_id).spec
            cfg = cluster.node_config(config, node_id)
            part = ProxyModel(spec).partial(cfg, ctx)
            probe = part()  # forwards/diagnostics are concurrency-free
            self._proxies.append((node_id, spec, part, mult))
            fwd_dynamic += share_p * probe.forward_dynamic * mult
            fwd_static += share_p * probe.forward_static * mult
            self._base_diag[f"{node_id}.mem_hit"] = probe.mem_hit
            self._base_diag[f"{node_id}.disk_hit"] = probe.disk_hit
        self.forward_dynamic = fwd_dynamic
        self.forward_static = fwd_static

        # --- app tier: only the CPU demand tracks concurrency ------------
        app_members = members[Role.APP]
        share_a = 1.0 / sum(m for _, m in app_members)
        self._share_a = share_a
        self._apps = []
        self._pools: list[PoolSpec] = []
        for node_id, mult in app_members:
            spec = cluster.placement(node_id).spec
            cfg = cluster.node_config(config, node_id)
            part = AppServerModel(spec).partial(
                cfg, ctx, dynamic_pages=fwd_dynamic, static_requests=fwd_static
            )
            probe = part()
            penalty = memory_model.penalty(probe.memory_bytes, spec.memory_bytes)
            invariant = NodeDemand(
                node_id=node_id,
                role=Role.APP,
                cpu=0.0,  # placeholder; rebuilt per round
                disk=share_a * probe.disk_demand * penalty,
                nic=share_a * spec.nic_seconds(probe.nic_bytes),
                cpu_servers=spec.cpu_cores,
                memory_bytes=probe.memory_bytes,
                memory_capacity=spec.memory_bytes,
                memory_penalty=penalty,
                multiplicity=mult,
            )
            self._apps.append((node_id, part, penalty, invariant))
            http_servers, http_backlog = probe.http_pool
            ajp_servers, ajp_backlog = probe.ajp_pool
            self._pools.append(
                PoolSpec(
                    node_id=node_id,
                    kind="http",
                    servers=http_servers,
                    capacity=http_servers + http_backlog,
                    visits=share_a * (fwd_dynamic + fwd_static),
                    multiplicity=mult,
                )
            )
            self._pools.append(
                PoolSpec(
                    node_id=node_id,
                    kind="ajp",
                    servers=ajp_servers,
                    capacity=ajp_servers + ajp_backlog,
                    visits=share_a * fwd_dynamic,
                    multiplicity=mult,
                )
            )

        # --- db tier: only the CPU demand tracks concurrency -------------
        db_members = members[Role.DB]
        share_d = 1.0 / sum(m for _, m in db_members)
        self._share_d = share_d
        self._dbs = []
        self._db_diag: dict[str, float] = {}
        for node_id, mult in db_members:
            spec = cluster.placement(node_id).spec
            cfg = cluster.node_config(config, node_id)
            part = DatabaseModel(spec).partial(cfg, ctx, dynamic_pages=fwd_dynamic)
            probe = part()
            penalty = memory_model.penalty(probe.memory_bytes, spec.memory_bytes)
            invariant = NodeDemand(
                node_id=node_id,
                role=Role.DB,
                cpu=0.0,  # placeholder; rebuilt per round
                disk=share_d * probe.disk_demand * penalty,
                nic=share_d * spec.nic_seconds(probe.nic_bytes),
                cpu_servers=spec.cpu_cores,
                memory_bytes=probe.memory_bytes,
                memory_capacity=spec.memory_bytes,
                memory_penalty=penalty,
                multiplicity=mult,
            )
            self._dbs.append((node_id, part, penalty, invariant))
            self._pools.append(
                PoolSpec(
                    node_id=node_id,
                    kind="dbconn",
                    servers=probe.connection_limit,
                    capacity=probe.connection_limit + DB_BACKLOG,
                    visits=share_d * fwd_dynamic,
                    multiplicity=mult,
                )
            )
            self._db_diag[f"{node_id}.table_miss"] = probe.table_miss
            self._db_diag[f"{node_id}.binlog_spill"] = probe.binlog_spill
        # Pools are immutable and concurrency-free: one tuple, every round.
        self._pools = tuple(self._pools)

    def build(self, concurrency: Mapping[str, float]) -> DemandSet:
        """Demand set under the current concurrency estimates."""
        memory_model = self.memory_model
        nodes: list[NodeDemand] = []
        diagnostics = dict(self._base_diag)

        share_p = self._share_p
        for node_id, spec, part, mult in self._proxies:
            ev = part(concurrency.get(node_id, 8.0))
            penalty = memory_model.penalty(ev.memory_bytes, spec.memory_bytes)
            nodes.append(
                NodeDemand(
                    node_id=node_id,
                    role=Role.PROXY,
                    cpu=share_p * ev.cpu_demand * penalty,
                    disk=share_p * ev.disk_demand * penalty,
                    nic=share_p * spec.nic_seconds(ev.nic_bytes),
                    cpu_servers=spec.cpu_cores,
                    memory_bytes=ev.memory_bytes,
                    memory_capacity=spec.memory_bytes,
                    memory_penalty=penalty,
                    multiplicity=mult,
                )
            )

        share_a = self._share_a
        for node_id, part, penalty, invariant in self._apps:
            ev = part(concurrency.get(node_id, 8.0))
            nodes.append(
                replace(invariant, cpu=share_a * ev.cpu_demand * penalty)
            )
            diagnostics[f"{node_id}.spawn_rate"] = ev.spawn_rate

        share_d = self._share_d
        for node_id, part, penalty, invariant in self._dbs:
            ev = part(concurrency.get(node_id, 8.0))
            nodes.append(
                replace(invariant, cpu=share_d * ev.cpu_demand * penalty)
            )
        diagnostics.update(self._db_diag)

        return DemandSet(
            nodes=tuple(nodes),
            pools=self._pools,
            forward_dynamic=self.forward_dynamic,
            forward_static=self.forward_static,
            diagnostics=diagnostics,
        )


def build_demands(
    cluster: ClusterSpec,
    config: Mapping[str, int],
    ctx: WorkloadContext,
    concurrency: Mapping[str, float],
    memory_model: MemoryModel | None = None,
) -> DemandSet:
    """Derive the demand set for ``config`` on ``cluster`` under ``ctx``.

    ``concurrency`` maps node id → the solver's current estimate of
    simultaneous in-flight requests at that node (the outer fixed point of
    :class:`repro.model.analytic.AnalyticBackend` refines it).  Callers
    that rebuild demands for many concurrency iterates of one
    configuration should hold a :class:`DemandBuilder` instead — this
    convenience wrapper prices the invariant setup on every call.
    """
    return DemandBuilder(cluster, config, ctx, memory_model).build(concurrency)
