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

:meth:`Resource.hold` is acquire, a service time drawn at the grant and
release in one yield.  A hold is the tuple ``(resource, process, rng,
mean, scale)``, told from an event by its class; its grant is a
*hold-grant record*, and one FIFO waiting room keeps requests and holds.
The hot paths update the busy-time and queue-length integrals inline,
with :meth:`TimeWeightedStats.update`'s float operations.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.sim.core import Environment, Event, SimulationError
from repro.util.stats import TimeWeightedStats

if TYPE_CHECKING:
    import numpy as np

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
        Event.__init__(self, env)
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
        self.resource._release()


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
        #: Queued requests and holds, in arrival order.
        self._waiting: deque = deque()
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
        """Requests and holds currently waiting."""
        return len(self._waiting)

    @property
    def rejected(self) -> int:
        """Count of acquires rejected because the waiting room was full."""
        return self._rejected

    @property
    def granted(self) -> int:
        """Count of acquires and holds that obtained a server."""
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
            self._in_service += 1
            self._granted += 1
            self.busy_stats.update(now, self._in_service)
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

    def hold(self, rng: "np.random.Generator", mean: float, scale: float) -> tuple:
        """Hold a server for ``rng.standard_exponential() * mean * scale``.

        ``yield res.hold(...)`` at once: the server is taken or queued
        as by :meth:`acquire`, the time is drawn when the grant is
        dispatched (``mean <= 0`` takes zero time and draws nothing), and
        the process resumes once, with ``None``, after the release.
        Draws, entries and seqs land where acquire, yielding the request,
        yielding the drawn delay and releasing in ``finally`` put them.
        An interrupt withdraws a queued hold, as :meth:`cancel` does, or
        releases a granted one at that instant; yielding anything else
        first withdraws it and throws :class:`SimulationError`.  Only a
        process can hold, and only on an unbounded resource.
        """
        env = self.env
        process = env._active
        if process is None:
            raise SimulationError("hold() outside a process")
        if self._queue_limit is not None:
            raise SimulationError(f"hold() on {self.name!r}, which has a queue limit")
        if not scale >= 0.0:
            raise SimulationError(f"hold() scale must be >= 0, got {scale!r}")
        hold = (self, process, rng, mean, scale)
        process._waiting_on = hold
        now = env._now
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
            env._seq = seq = env._seq + 1
            process._resume_seq = seq
            env._ready.append((now, seq, hold, process))
        else:
            waiting = self._waiting
            waiting.append(hold)
            queued = len(waiting)
            # TimeWeightedStats.update(now, queued), inlined.
            stats = self.queue_stats
            stats._area += stats._last_v * (now - stats._last_t)
            stats._last_t = now
            stats._last_v = queued
            if queued > stats._max:
                stats._max = queued
            process._resume_seq = -1
        return hold

    def release(self, req: AcquireRequest) -> None:
        """Free the server held by ``req`` and admit the next waiter."""
        if req.resource is not self:
            raise SimulationError("release on the wrong resource")
        req.release()

    def cancel(self, req: AcquireRequest) -> None:
        """Withdraw a waiting request or hold (no effect once granted)."""
        try:
            self._waiting.remove(req)
        except ValueError:
            return
        self.queue_stats.update(self.env.now, len(self._waiting))

    def _withdraw(self, hold: tuple) -> None:
        """Take back a hold its process left: cancel it if it is queued,
        else release its server now."""
        if hold in self._waiting:
            self.cancel(hold)
        else:
            self._release()

    def _release(self) -> None:
        """Hand a freed server to the next waiter, or mark it idle."""
        env = self.env
        now = env._now
        waiting = self._waiting
        if waiting:
            nxt = waiting.popleft()
            # TimeWeightedStats.update(now, len(waiting)), inlined (a
            # fall never raises the maximum).
            stats = self.queue_stats
            stats._area += stats._last_v * (now - stats._last_t)
            stats._last_t = now
            stats._last_v = len(waiting)
            self._granted += 1
            # The server is handed over; _in_service is unchanged.
            env._seq = seq = env._seq + 1
            if nxt.__class__ is tuple:
                # A hold: its process waits on it by construction.
                process = nxt[1]
                process._resume_seq = seq
                env._ready.append((now, seq, nxt, process))
                return
            nxt._triggered = True
            waiter = nxt._waiter
            if waiter is not None and waiter._waiting_on is nxt:
                waiter._resume_seq = seq
                env._ready.append((now, seq, nxt, waiter))
            else:
                nxt._value = nxt
                env._n_events += 1
                env._ready.append((now, seq, nxt, None))
        else:
            self._in_service = busy = self._in_service - 1
            # TimeWeightedStats.update(now, busy), inlined, as above.
            stats = self.busy_stats
            stats._area += stats._last_v * (now - stats._last_t)
            stats._last_t = now
            stats._last_v = busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Resource({self.name!r}, capacity={self._capacity}, "
            f"busy={self._in_service}, queued={len(self._waiting)})"
        )
