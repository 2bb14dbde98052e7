"""Multi-server queueing resources with bounded waiting rooms.

:class:`Resource` models a pool of ``capacity`` identical servers (threads,
database connections, disk channels).  Acquire requests beyond capacity wait
FIFO in a queue of at most ``queue_limit`` entries; requests arriving to a
full queue fail immediately with :class:`QueueFullError` — this is how the
cluster models express Tomcat's ``acceptCount`` and similar backlog limits.

Grants are *grant records* (see :mod:`repro.sim.core`): an acquire that
finds a free server inside a process, and a release that hands its server
to a process waiting on the next request, schedule a record that resumes
that process with the request, in the ``(now, seq)`` slot where the
request's success event would be delivered.  Rejections, and grants to
requests nobody waits on yet (acquires made outside a process), are
ordinary events.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.core import Environment, Event, SimulationError
from repro.util.stats import TimeWeightedStats

__all__ = ["Resource", "AcquireRequest", "QueueFullError"]


class QueueFullError(Exception):
    """An acquire arrived while the waiting room was full (rejected)."""


class AcquireRequest(Event):
    """Event representing one pending or granted acquisition.

    Yield it to wait for a server; call :meth:`release` (or the resource's
    ``release``) exactly once when done.
    """

    __slots__ = ("resource", "_released")

    def __init__(self, env: Environment, resource: "Resource") -> None:
        super().__init__(env)
        self.resource = resource
        self._released = False

    @property
    def value(self) -> "Optional[AcquireRequest]":
        """The request itself once granted (``None`` before or if rejected).

        A grant record sends the request without storing it in ``_value``,
        so a granted request holds no reference to itself and is freed by
        reference counting; only grants delivered as events store it.
        """
        return self if self._triggered and self._exc is None else None

    def release(self) -> None:
        """Return the server to the pool and admit the next waiter.

        Releasing twice, or releasing a request that never held a server,
        is an error.
        """
        if self._released:
            raise SimulationError("double release")
        if not self._triggered or self._exc is not None:
            raise SimulationError("release of a request that never held a server")
        self._released = True
        res = self.resource
        env = self.env
        now = env._now
        waiting = res._waiting
        if waiting:
            nxt = waiting.popleft()
            res.queue_stats.update(now, len(waiting))
            res._granted += 1
            # The server is handed over; _in_service is unchanged.
            nxt._triggered = True
            env._seq = seq = env._seq + 1
            waiter = nxt._waiter
            if waiter is not None and waiter._waiting_on is nxt:
                waiter._resume_seq = seq
                env._ready.append((now, seq, nxt, waiter))
            else:
                nxt._value = nxt
                env._n_events += 1
                env._ready.append((now, seq, nxt, None))
        else:
            res._in_service = busy = res._in_service - 1
            # TimeWeightedStats.update(now, busy), inlined.
            stats = res.busy_stats
            stats._area += stats._last_v * (now - stats._last_t)
            stats._last_t = now
            stats._last_v = busy
            if busy > stats._max:
                stats._max = busy


class Resource:
    """``capacity`` servers with a FIFO waiting room of ``queue_limit``."""

    __slots__ = (
        "env",
        "name",
        "_capacity",
        "_queue_limit",
        "_in_service",
        "_waiting",
        "_rejected",
        "_granted",
        "busy_stats",
        "queue_stats",
    )

    def __init__(
        self,
        env: Environment,
        capacity: int,
        queue_limit: Optional[int] = None,
        name: str = "resource",
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self.env = env
        self.name = name
        self._capacity = capacity
        self._queue_limit = queue_limit
        self._in_service = 0
        self._waiting: deque[AcquireRequest] = deque()
        self._rejected = 0
        self._granted = 0
        self.busy_stats = TimeWeightedStats(env.now, 0.0)
        self.queue_stats = TimeWeightedStats(env.now, 0.0)

    # -- introspection ----------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of servers."""
        return self._capacity

    @property
    def in_service(self) -> int:
        """Requests currently holding a server."""
        return self._in_service

    @property
    def queue_length(self) -> int:
        """Requests currently waiting."""
        return len(self._waiting)

    @property
    def rejected(self) -> int:
        """Count of acquires rejected because the waiting room was full."""
        return self._rejected

    @property
    def granted(self) -> int:
        """Count of acquires that obtained a server."""
        return self._granted

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-average fraction of servers busy since the last reset."""
        t = self.env.now if now is None else now
        return self.busy_stats.mean(t) / self._capacity

    def reset_stats(self) -> None:
        """Restart utilization/queue integration at the current time."""
        self.busy_stats.reset(self.env.now)
        self.queue_stats.reset(self.env.now)
        self._rejected = 0
        self._granted = 0

    # -- acquire / release -------------------------------------------------
    def acquire(self) -> AcquireRequest:
        """Request a server; the returned event triggers when granted.

        If the waiting room is full the event fails with
        :class:`QueueFullError` (delivered when yielded on).

        Inside a process the request is also stored in the process's
        ``_waiting_on`` slot, so the kernel registers the wait without a
        call if the process yields the request next.  A granted request's
        record becomes stale if the process yields anything else first.
        """
        env = self.env
        req = AcquireRequest(env, self)
        now = env._now
        process = env._active
        if self._in_service < self._capacity:
            self._in_service = busy = self._in_service + 1
            self._granted += 1
            # TimeWeightedStats.update(now, busy), inlined.
            stats = self.busy_stats
            stats._area += stats._last_v * (now - stats._last_t)
            stats._last_t = now
            stats._last_v = busy
            if busy > stats._max:
                stats._max = busy
            req._triggered = True
            env._seq = seq = env._seq + 1
            if process is None:
                req._value = req
                env._n_events += 1
                env._ready.append((now, seq, req, None))
            else:
                process._waiting_on = req
                process._resume_seq = seq
                env._ready.append((now, seq, req, process))
        elif self._queue_limit is not None and len(self._waiting) >= self._queue_limit:
            self._rejected += 1
            req.fail(QueueFullError(self.name))
        else:
            self._waiting.append(req)
            self.queue_stats.update(now, len(self._waiting))
            if process is not None:
                process._waiting_on = req
                # A grant record made earlier in this step is not what the
                # process will wait for.
                process._resume_seq = -1
        return req

    def release(self, req: AcquireRequest) -> None:
        """Free the server held by ``req`` and admit the next waiter."""
        if req.resource is not self:
            raise SimulationError("release on the wrong resource")
        req.release()

    def cancel(self, req: AcquireRequest) -> None:
        """Withdraw a waiting request (no effect if already granted)."""
        try:
            self._waiting.remove(req)
        except ValueError:
            return
        self.queue_stats.update(self.env.now, len(self._waiting))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Resource({self.name!r}, capacity={self._capacity}, "
            f"busy={self._in_service}, queued={len(self._waiting)})"
        )
