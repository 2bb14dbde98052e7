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
from repro.sim.resources import QueueFullError, Resource
from repro.tpcw.profiles import InteractionProfile
from repro.util.stats import RunningStats

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
        "latency",
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
        self.latency = RunningStats()

    def _sample(self, rng: np.random.Generator, mean: float) -> float:
        """Exponential service time around ``mean`` with the swap penalty."""
        if mean <= 0.0:
            return 0.0
        # One standard draw scaled by the mean, as rng.exponential(mean)
        # computes it, then the swap penalty.
        return rng.standard_exponential() * mean * self.memory_penalty

    def use_cpu(self, rng: np.random.Generator, mean_seconds: float):
        """Hold one CPU core for a sampled service time (generator).

        The per-request flows below inline this body (acquire, sampled
        delay, release) rather than ``yield from`` it: each delegation
        level costs a frame hop on every kernel resume, and these sites
        sit on the hot path.  The helper remains for non-critical
        callers and tests.
        """
        req = self.cpu.acquire()
        yield req
        try:
            # A bare float yield is a delay (a kernel resume record): no
            # Timeout object on the dominant service-time pattern.
            yield self._sample(rng, mean_seconds)
        finally:
            req.release()

    def use_disk(self, rng: np.random.Generator, mean_seconds: float):
        """Hold the disk for a sampled service time (generator)."""
        req = self.disk.acquire()
        yield req
        try:
            yield self._sample(rng, mean_seconds)
        finally:
            req.release()

    def account_nic(self, transfer_bytes: float) -> None:
        """Record bytes through this node's NIC."""
        self.nic_bytes += transfer_bytes

    def reset_stats(self) -> None:
        """Restart utilization integration (at the measurement window)."""
        self.cpu.reset_stats()
        self.disk.reset_stats()
        self.nic_bytes = 0.0
        self.latency = RunningStats()


class ProxyServerSim(NodeSim):
    """Tier 1: the Squid model, executed per request."""

    __slots__ = ("cfg", "ctx", "model", "mem_hit", "disk_hit", "lookup_cpu", "mean_obj")

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
        self.mean_obj = ctx.catalog.mean_object_bytes()

    def classify(self, rng: np.random.Generator) -> str:
        """Draw the cache outcome for one static object request."""
        u = rng.random()
        if u < self.mem_hit:
            return "mem"
        if u < self.mem_hit + self.disk_hit:
            return "disk"
        return "miss"

    def serve_static(self, rng: np.random.Generator, size: float):
        """Serve one static object; returns the outcome ("mem"/"disk"/"miss").

        On a miss the caller forwards to the application tier and then calls
        :meth:`relay` for the response path.
        """
        m = self.model
        cpu = self.cpu
        outcome = self.classify(rng)
        # use_cpu/use_disk inlined (see NodeSim.use_cpu).
        req = cpu.acquire()
        yield req
        try:
            yield self._sample(rng, m.PARSE_CPU + self.lookup_cpu)
        finally:
            req.release()
        if outcome == "mem":
            req = cpu.acquire()
            yield req
            try:
                yield self._sample(rng, size / m.MEM_COPY_RATE)
            finally:
                req.release()
        elif outcome == "disk":
            req = cpu.acquire()
            yield req
            try:
                yield self._sample(rng, m.DISK_HIT_CPU)
            finally:
                req.release()
            if rng.random() < m.DISK_HIT_IO_PROB:
                req = self.disk.acquire()
                yield req
                try:
                    yield self._sample(
                        rng, self.spec.disk_seconds(size, accesses=1.0)
                    )
                finally:
                    req.release()
        self.account_nic(size + 600.0)
        return outcome

    def accept_page(self, rng: np.random.Generator, cacheable: bool):
        """Handle a page request; returns True if served from cache."""
        m = self.model
        req = self.cpu.acquire()
        yield req
        try:
            yield self._sample(rng, m.PARSE_CPU + self.lookup_cpu)
        finally:
            req.release()
        if cacheable:
            outcome = self.classify(rng)
            if outcome != "miss":
                if outcome == "disk" and rng.random() < m.DISK_HIT_IO_PROB:
                    req = self.disk.acquire()
                    yield req
                    try:
                        yield self._sample(
                            rng,
                            self.spec.disk_seconds(
                                self.ctx.profile.response_bytes, accesses=1.0
                            ),
                        )
                    finally:
                        req.release()
                return True
        return False

    def relay(self, rng: np.random.Generator, size: float):
        """Relay a response fetched from the application tier."""
        m = self.model
        req = self.cpu.acquire()
        yield req
        try:
            yield self._sample(rng, m.FORWARD_CPU + size / m.MEM_COPY_RATE)
        finally:
            req.release()
        self.account_nic(2.0 * size + 600.0)


class AppServerSim(NodeSim):
    """Tier 2: the Tomcat model, executed per request."""

    __slots__ = ("cfg", "ctx", "model", "http_pool", "ajp_pool", "mean_obj")

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
        self.mean_obj = ctx.catalog.mean_object_bytes()

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
            spawn = self._spawn_cost(rng)
            cpu_req = self.cpu.acquire()
            yield cpu_req
            try:
                yield self._sample(
                    rng,
                    m.PARSE_CPU + m.STATIC_SERVE_CPU
                    + size / m.FILE_COPY_RATE + spawn,
                )
            finally:
                cpu_req.release()
            if rng.random() < m.STATIC_DISK_ACCESS_PROB:
                disk_req = self.disk.acquire()
                yield disk_req
                try:
                    yield self._sample(
                        rng, self.spec.disk_seconds(size, accesses=1.0)
                    )
                finally:
                    disk_req.release()
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
            spawn = self._spawn_cost(rng)
            req = self.cpu.acquire()
            yield req
            try:
                yield self._sample(rng, m.PARSE_CPU + spawn)
            finally:
                req.release()
            ajp = self.ajp_pool.acquire()
            yield ajp
            try:
                syscalls = math.ceil(profile.response_bytes / self.cfg["bufferSize"])
                req = self.cpu.acquire()
                yield req
                try:
                    yield self._sample(
                        rng,
                        profile.app_cpu
                        + m.AJP_RELAY_CPU
                        + syscalls * m.WRITE_SYSCALL_CPU,
                    )
                finally:
                    req.release()
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
            conc = max(float(self.conn_pool.in_service), 1.0)
            cache_hit = min(1.0, self.cfg["thread_con"] / conc)
            if rng.random() < m.CONN_CHURN_PER_PAGE * (1.0 - cache_hit):
                req = cpu.acquire()
                yield req
                try:
                    yield self._sample(rng, m.CONN_SETUP_CPU)
                finally:
                    req.release()

            u = rng.random(4)
            reads = self._count(u[0], profile.db_queries)
            heavy = self._count(u[1], profile.db_heavy_queries)
            writes = self._count(u[2], profile.db_writes)
            inserts = self._count(u[3], profile.db_inserts)

            # use_cpu/use_disk inlined throughout (see NodeSim.use_cpu).
            for _ in range(reads):
                cost = m.QUERY_CPU * self.reader_factor
                if rng.random() < self.table_miss:
                    cost += m.TABLE_OPEN_CPU
                    if rng.random() < m.TABLE_OPEN_DISK_PROB:
                        req = disk.acquire()
                        yield req
                        try:
                            yield self._sample(
                                rng, self.spec.disk_seconds(4096, accesses=1.0)
                            )
                        finally:
                            req.release()
                req = cpu.acquire()
                yield req
                try:
                    yield self._sample(rng, cost)
                finally:
                    req.release()
                if rng.random() < m.READ_MISS_PROB:
                    req = disk.acquire()
                    yield req
                    try:
                        yield self._sample(
                            rng,
                            self.spec.disk_seconds(
                                m.READ_MISS_BYTES, accesses=1.0
                            ),
                        )
                    finally:
                        req.release()
            for _ in range(heavy):
                req = cpu.acquire()
                yield req
                try:
                    yield self._sample(
                        rng, m.HEAVY_QUERY_CPU * self.join_factor
                    )
                finally:
                    req.release()
                req = disk.acquire()
                yield req
                try:
                    yield self._sample(
                        rng,
                        self.spec.disk_seconds(m.HEAVY_SCAN_BYTES, accesses=0.6),
                    )
                finally:
                    req.release()
            for _ in range(writes):
                req = cpu.acquire()
                yield req
                try:
                    yield self._sample(rng, m.WRITE_CPU)
                finally:
                    req.release()
                req = disk.acquire()
                yield req
                try:
                    yield self._sample(
                        rng,
                        self.spec.disk_seconds(
                            4096, accesses=m.WRITE_LOG_ACCESSES
                        ),
                    )
                finally:
                    req.release()
                if rng.random() < self.binlog_spill:
                    req = disk.acquire()
                    yield req
                    try:
                        yield self._sample(
                            rng,
                            self.spec.disk_seconds(
                                m.BINLOG_RECORD_MEAN, accesses=1.0
                            ),
                        )
                    finally:
                        req.release()
            for _ in range(inserts):
                req = cpu.acquire()
                yield req
                try:
                    yield self._sample(rng, m.INSERT_CPU)
                finally:
                    req.release()
                # Delayed-insert batching amortizes the disk write.
                if rng.random() < 1.0 / self.batch:
                    req = disk.acquire()
                    yield req
                    try:
                        yield self._sample(
                            rng,
                            self.spec.disk_seconds(
                                4096, accesses=m.INSERT_DISK_ACCESS
                            ),
                        )
                    finally:
                        req.release()
            syscalls = math.ceil(
                max(profile.db_result_bytes, 1.0) / self.cfg["net_buffer_length"]
            )
            req = cpu.acquire()
            yield req
            try:
                yield self._sample(rng, syscalls * m.WRITE_SYSCALL_CPU)
            finally:
                req.release()
            self.account_nic(profile.db_result_bytes + 400.0)
        finally:
            conn.release()
