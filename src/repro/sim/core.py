"""Event loop and primitive events for the simulation kernel.

The heap entry, not the :class:`Event` object, is the unit of
scheduling.  Entries are ``(at, seq, event, process)`` 4-tuples; a plain
timer wakeup — the dominant operation in the DES, one per think/service
delay — is a ``(at, seq, None, process)`` *resume record* that resumes
the waiting process directly from the scheduler, with no ``Event``
allocation, no callback list and no bound-method callback.  Processes
wait on real events through a single ``_waiter`` slot when possible,
and :meth:`Environment.run` dispatches with the heap bindings hoisted
into locals.

Scheduling follows one total ``(at, seq)`` order, and a process yielding
a bare ``float`` acquires its sequence number at the same point in the
schedule stream as ``yield env.timeout(...)`` does, so the two spellings
of a delay simulate bit-identically.  ``tests/fixtures/des_golden.json``
pins the simulator's output byte for byte.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["Environment", "Event", "Timeout", "Interrupt", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, yielding a bad object…)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with a value (success) or *failed* with an
    exception.  Callbacks registered before the trigger run when the event is
    processed by the loop; waiting processes are resumed with the value or
    have the exception thrown into them.

    The first process to wait occupies the ``_waiter`` slot instead of
    appending a callback; the callback list itself is created lazily
    (most events never need one).  Delivery follows registration order:
    the waiter slot is only used while the callback list is empty, so it
    is always the chronologically first registration.
    """

    __slots__ = (
        "env",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "_callbacks",
        "_waiter",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._waiter: Optional["Process"] = None

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` was called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the loop has delivered the event to its waiters."""
        return self._processed

    @property
    def value(self) -> Any:
        """The success value (only meaningful after the event succeeded)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if the event failed."""
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        env._seq = seq = env._seq + 1
        env._n_events += 1
        _heappush(env._queue, (env._now, seq, self, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        env = self.env
        env._seq = seq = env._seq + 1
        env._n_events += 1
        _heappush(env._queue, (env._now, seq, self, None))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self._processed:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _process(self) -> None:
        self._processed = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter._resume(self)
        callbacks = self._callbacks
        self._callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(env._now + delay, self)


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_active", "_n_events")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[
            tuple[float, int, Optional[Event], Optional["Process"]]
        ] = []
        self._seq = 0
        self._active: Optional["Process"] = None
        self._n_events = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently being stepped (None outside process code)."""
        return self._active

    # -- observability --------------------------------------------------
    @property
    def scheduled_entries(self) -> int:
        """Total heap entries scheduled so far (events + resume records)."""
        return self._seq

    @property
    def pending_entries(self) -> int:
        """Heap entries not yet dispatched."""
        return len(self._queue)

    @property
    def fast_resumes(self) -> int:
        """Resume records scheduled without an :class:`Event` allocation.

        Derived as total entries minus event-carrying entries, so the
        hot delay path never touches a counter.
        """
        return self._seq - self._n_events

    # -- event construction helpers ------------------------------------
    def event(self) -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Start a new :class:`Process` running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, at: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        self._n_events += 1
        _heappush(self._queue, (at, seq, event, None))

    def _schedule_resume(self, at: float, process: "Process") -> int:
        """Schedule a bare resume record for ``process``; returns its seq.

        The process is resumed with ``(None, None)`` when the record is
        dispatched, unless its ``_resume_seq`` no longer matches (the
        record went stale through an interrupt or the process moved on).
        """
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (at, seq, None, process))
        return seq

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process exactly one heap entry (event or resume record)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        entry = _heappop(self._queue)
        self._now = entry[0]
        event = entry[2]
        if event is not None:
            event._process()
        else:
            process = entry[3]
            if process._resume_seq == entry[1]:
                process._step(None, None)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue is empty or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given the clock
        is advanced to exactly ``until`` even if no event lands there.
        """
        if until is not None:
            if until < self._now:
                raise SimulationError(
                    f"until={until} is in the past (now={self._now})"
                )
            limit = until
        else:
            limit = _INF
        queue = self._queue
        pop = _heappop
        push = _heappush
        while queue:
            at, seq, event, process = pop(queue)
            if at > limit:
                # Too far: restore the entry and stop.
                push(queue, (at, seq, event, process))
                break
            self._now = at
            if event is None:
                if process._resume_seq != seq:
                    continue  # stale record (interrupted / moved on)
                value = None
            else:
                # Event delivery.  The dominant shape — one waiter, no
                # callbacks, no failure — feeds straight into the inlined
                # send below; anything else takes the full _process path.
                waiter = event._waiter
                if (
                    waiter is None
                    or event._callbacks is not None
                    or event._exc is not None
                    or waiter._waiting_on is not event
                ):
                    event._process()
                    continue
                event._processed = True
                event._waiter = None
                waiter._waiting_on = None
                process = waiter
                value = event._value
            # Inline of Process._step for the dominant resume /
            # single-waiter delivery cycle; non-delay yields fall back to
            # Process._wait_on.
            self._active = process
            try:
                target = process._generator.send(value)
            except StopIteration as stop:
                self._active = None
                process.succeed(stop.value)
                continue
            except Interrupt as unhandled:
                self._active = None
                process.fail(unhandled)
                continue
            except Exception as err:
                self._active = None
                process.fail(err)
                continue
            self._active = None
            if target.__class__ is float and target >= 0.0:
                self._seq = seq = self._seq + 1
                push(queue, (at + target, seq, None, process))
                process._resume_seq = seq
            else:
                process._wait_on(target)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
