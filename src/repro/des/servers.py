"""Simulated server processes for the three tiers.

Each ``*Sim`` class owns the node's contended resources (CPU cores, one
disk, thread/connection pools) and exposes generator methods the request
flows yield through.  Cost constants come from the corresponding
:mod:`repro.cluster` model classes so the DES and the analytic backend
price the same work identically; service times are sampled exponential
around those means to generate realistic queueing variability.

A node's *memory penalty* (swap pressure) is computed once per measurement
from the same server-model evaluation the analytic backend uses and
multiplies every sampled service time on that node.

CPU and disk work is one ``yield res.hold(rng, mean, self.memory_penalty)``
(:meth:`repro.sim.resources.Resource.hold`): the server is held for
``rng.standard_exponential() * mean * penalty``, drawn when it is
granted, and the flow resumes once, after the release.  No mean depends
on anything a grant changes, so computing it before the hold gives the
value it had when it was computed after the grant.  Thread and
connection pools have bounded waiting rooms, so they keep acquire and
release.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.appserver import AppServerModel
from repro.cluster.context import WorkloadContext
from repro.cluster.database import DatabaseModel
from repro.cluster.node import NodeSpec
from repro.cluster.proxy import ProxyModel
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.tpcw.profiles import InteractionProfile

__all__ = ["NodeSim", "ProxyServerSim", "AppServerSim", "DbServerSim"]


class NodeSim:
    """Shared per-node machinery: CPU, disk, NIC byte accounting."""

    __slots__ = (
        "env",
        "node_id",
        "spec",
        "memory_penalty",
        "memory_bytes",
        "cpu",
        "disk",
        "nic_bytes",
    )

    def __init__(
        self,
        env: Environment,
        node_id: str,
        spec: NodeSpec,
        memory_penalty: float = 1.0,
        memory_bytes: float = 0.0,
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.memory_penalty = memory_penalty
        self.memory_bytes = memory_bytes
        self.cpu = Resource(env, spec.cpu_cores, name=f"{node_id}:cpu")
        self.disk = Resource(env, 1, name=f"{node_id}:disk")
        self.nic_bytes = 0.0

    def account_nic(self, transfer_bytes: float) -> None:
        """Record bytes through this node's NIC."""
        self.nic_bytes += transfer_bytes

    def reset_stats(self) -> None:
        """Restart utilization integration (at the measurement window)."""
        self.cpu.reset_stats()
        self.disk.reset_stats()
        self.nic_bytes = 0.0


class ProxyServerSim(NodeSim):
    """Tier 1: the Squid model, executed per request."""

    __slots__ = ("cfg", "ctx", "model", "mem_hit", "disk_hit", "lookup_cpu")

    def __init__(self, env, node_id, spec, cfg: dict, ctx: WorkloadContext,
                 memory_penalty: float = 1.0, memory_bytes: float = 0.0) -> None:
        super().__init__(env, node_id, spec, memory_penalty, memory_bytes)
        self.cfg = cfg
        self.ctx = ctx
        model = ProxyModel(spec)
        self.model = model
        ev = model.evaluate(cfg, ctx)
        self.mem_hit = ev.mem_hit
        self.disk_hit = ev.disk_hit
        self.lookup_cpu = (
            model.LOOKUP_BASE_CPU
            + model.SCAN_CPU_PER_OBJECT * cfg["store_objects_per_bucket"] / 2.0
        )

    def classify(self, rng: np.random.Generator) -> str:
        """Draw the cache outcome for one static object request."""
        u = rng.random()
        if u < self.mem_hit:
            return "mem"
        if u < self.mem_hit + self.disk_hit:
            return "disk"
        return "miss"

    def accept_page(self, rng: np.random.Generator, cacheable: bool):
        """Handle a page request; returns True if served from cache."""
        m = self.model
        pen = self.memory_penalty
        yield self.cpu.hold(rng, m.PARSE_CPU + self.lookup_cpu, pen)
        if cacheable:
            outcome = self.classify(rng)
            if outcome != "miss":
                if outcome == "disk" and rng.random() < m.DISK_HIT_IO_PROB:
                    disk_s = self.spec.disk_seconds(
                        self.ctx.profile.response_bytes, accesses=1.0
                    )
                    yield self.disk.hold(rng, disk_s, pen)
                return True
        return False

    def relay(self, rng: np.random.Generator, size: float):
        """Relay a response fetched from the application tier."""
        m = self.model
        cpu_s = m.FORWARD_CPU + size / m.MEM_COPY_RATE
        yield self.cpu.hold(rng, cpu_s, self.memory_penalty)
        self.account_nic(2.0 * size + 600.0)


class AppServerSim(NodeSim):
    """Tier 2: the Tomcat model, executed per request."""

    __slots__ = ("cfg", "ctx", "model", "http_pool", "ajp_pool")

    def __init__(self, env, node_id, spec, cfg: dict, ctx: WorkloadContext,
                 memory_penalty: float = 1.0, memory_bytes: float = 0.0) -> None:
        super().__init__(env, node_id, spec, memory_penalty, memory_bytes)
        self.cfg = cfg
        self.ctx = ctx
        self.model = AppServerModel(spec)
        self.http_pool = Resource(
            env,
            max(int(cfg["maxProcessors"]), 1),
            queue_limit=int(cfg["acceptCount"]),
            name=f"{node_id}:http",
        )
        self.ajp_pool = Resource(
            env,
            max(int(cfg["AJPmaxProcessors"]), 1),
            queue_limit=int(cfg["AJPacceptCount"]),
            name=f"{node_id}:ajp",
        )

    def _spawn_cost(self, rng: np.random.Generator) -> float:
        """Thread-churn cost: spawning when the warm pool is exceeded."""
        m = self.model
        warm = float(self.cfg["minProcessors"])
        busy = float(self.http_pool.in_service)
        if busy <= warm:
            return 0.0
        prob = self.ctx.burstiness * (busy - warm) / max(busy, 1.0) * 0.25
        return m.SPAWN_CPU if rng.random() < prob else 0.0

    def serve_static(self, rng: np.random.Generator, size: float):
        """Serve a proxy cache miss from the servlet container's files."""
        m = self.model
        req = self.http_pool.acquire()
        yield req  # raises QueueFullError via the event if the backlog is full
        try:
            pen = self.memory_penalty
            spawn = self._spawn_cost(rng)
            cpu_s = (
                m.PARSE_CPU + m.STATIC_SERVE_CPU + size / m.FILE_COPY_RATE + spawn
            )
            yield self.cpu.hold(rng, cpu_s, pen)
            if rng.random() < m.STATIC_DISK_ACCESS_PROB:
                disk_s = self.spec.disk_seconds(size, accesses=1.0)
                yield self.disk.hold(rng, disk_s, pen)
            self.account_nic(size + 600.0)
        finally:
            req.release()

    def serve_page(
        self,
        rng: np.random.Generator,
        profile: InteractionProfile,
        db_call,  # generator factory: () -> generator running the DB work
    ):
        """Run a dynamic page: HTTP thread -> AJP thread -> servlet + DB."""
        m = self.model
        http = self.http_pool.acquire()
        yield http
        try:
            pen = self.memory_penalty
            spawn = self._spawn_cost(rng)
            yield self.cpu.hold(rng, m.PARSE_CPU + spawn, pen)
            ajp = self.ajp_pool.acquire()
            yield ajp
            try:
                syscalls = math.ceil(profile.response_bytes / self.cfg["bufferSize"])
                cpu_s = (
                    profile.app_cpu
                    + m.AJP_RELAY_CPU
                    + syscalls * m.WRITE_SYSCALL_CPU
                )
                yield self.cpu.hold(rng, cpu_s, pen)
                if db_call is not None:
                    yield from db_call()
            finally:
                ajp.release()
            self.account_nic(profile.response_bytes + profile.db_result_bytes + 600.0)
        finally:
            http.release()


class DbServerSim(NodeSim):
    """Tier 3: the MySQL model, executed per page's worth of queries."""

    __slots__ = (
        "cfg",
        "ctx",
        "model",
        "conn_pool",
        "table_miss",
        "binlog_spill",
        "join_factor",
        "batch",
        "reader_factor",
    )

    def __init__(self, env, node_id, spec, cfg: dict, ctx: WorkloadContext,
                 memory_penalty: float = 1.0, memory_bytes: float = 0.0,
                 backlog: int = 10) -> None:
        super().__init__(env, node_id, spec, memory_penalty, memory_bytes)
        self.cfg = cfg
        self.ctx = ctx
        model = DatabaseModel(spec)
        self.model = model
        self.conn_pool = Resource(
            env,
            max(int(cfg["max_connections"]), 1),
            queue_limit=backlog,
            name=f"{node_id}:dbconn",
        )
        self.table_miss = math.exp(-cfg["table_cache"] / model.TABLE_WORKING_SET)
        self.binlog_spill = math.exp(
            -cfg["binlog_cache_size"] / model.BINLOG_RECORD_MEAN
        )
        jb = float(cfg["join_buffer_size"])
        if jb >= model.JOIN_BUFFER_NEEDED:
            self.join_factor = 1.0
        else:
            self.join_factor = 1.0 + model.JOIN_REFILL_COEF * math.log2(
                model.JOIN_BUFFER_NEEDED / jb
            )
        self.batch = min(16.0, max(1.0, cfg["delayed_queue_size"] / 500.0))
        self.reader_factor = 1.0 + 0.06 * math.exp(
            -cfg["delayed_insert_limit"] / 120.0
        )

    @staticmethod
    def _count(u: float, mean: float) -> int:
        """Integerize a fractional per-page operation count.

        ``u`` is a pre-drawn uniform — the four per-page counts consume
        one vectorised draw of four (stream-identical to four scalar
        draws).
        """
        base = int(mean)
        return base + (1 if u < mean - base else 0)

    def run_queries(self, rng: np.random.Generator, profile: InteractionProfile):
        """Execute one dynamic page's database work inside one connection."""
        m = self.model
        conn = self.conn_pool.acquire()
        yield conn
        try:
            # Connection churn: thread-cache miss pays setup CPU.
            cpu = self.cpu
            disk = self.disk
            pen = self.memory_penalty
            disk_s = self.spec.disk_seconds
            conc = max(float(self.conn_pool.in_service), 1.0)
            cache_hit = min(1.0, self.cfg["thread_con"] / conc)
            if rng.random() < m.CONN_CHURN_PER_PAGE * (1.0 - cache_hit):
                yield cpu.hold(rng, m.CONN_SETUP_CPU, pen)

            u = rng.random(4)
            reads = self._count(u[0], profile.db_queries)
            heavy = self._count(u[1], profile.db_heavy_queries)
            writes = self._count(u[2], profile.db_writes)
            inserts = self._count(u[3], profile.db_inserts)

            for _ in range(reads):
                cost = m.QUERY_CPU * self.reader_factor
                if rng.random() < self.table_miss:
                    cost += m.TABLE_OPEN_CPU
                    if rng.random() < m.TABLE_OPEN_DISK_PROB:
                        yield disk.hold(rng, disk_s(4096, accesses=1.0), pen)
                yield cpu.hold(rng, cost, pen)
                if rng.random() < m.READ_MISS_PROB:
                    yield disk.hold(
                        rng, disk_s(m.READ_MISS_BYTES, accesses=1.0), pen
                    )
            for _ in range(heavy):
                yield cpu.hold(rng, m.HEAVY_QUERY_CPU * self.join_factor, pen)
                yield disk.hold(
                    rng, disk_s(m.HEAVY_SCAN_BYTES, accesses=0.6), pen
                )
            for _ in range(writes):
                yield cpu.hold(rng, m.WRITE_CPU, pen)
                yield disk.hold(
                    rng, disk_s(4096, accesses=m.WRITE_LOG_ACCESSES), pen
                )
                if rng.random() < self.binlog_spill:
                    yield disk.hold(
                        rng, disk_s(m.BINLOG_RECORD_MEAN, accesses=1.0), pen
                    )
            for _ in range(inserts):
                yield cpu.hold(rng, m.INSERT_CPU, pen)
                # Delayed-insert batching amortizes the disk write.
                if rng.random() < 1.0 / self.batch:
                    yield disk.hold(
                        rng, disk_s(4096, accesses=m.INSERT_DISK_ACCESS), pen
                    )
            syscalls = math.ceil(
                max(profile.db_result_bytes, 1.0) / self.cfg["net_buffer_length"]
            )
            yield cpu.hold(rng, syscalls * m.WRITE_SYSCALL_CPU, pen)
            self.account_nic(profile.db_result_bytes + 400.0)
        finally:
            conn.release()
