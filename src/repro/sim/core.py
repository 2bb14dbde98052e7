"""Event loop and primitive events for the simulation kernel.

The schedule entry, not the :class:`Event` object, is the unit of
scheduling.  Entries are ``(at, seq, event, process)`` 4-tuples:

* ``(at, seq, event, None)`` delivers ``event`` to its waiters;
* ``(at, seq, None, process)`` is a *resume record*: it resumes the
  process directly, with no ``Event`` allocation, no callback list and
  no bound-method callback.  Plain delays (a yielded ``float``) and
  process kicks are resume records;
* ``(at, seq, request, process)`` is a *grant record*
  (:mod:`repro.sim.resources`): it sends the granted ``request`` into
  the process that waits on it, exactly what delivering the request as
  an event would do.  A grant record the process no longer waits on (it
  was interrupted or moved on) is delivered as the plain event;
* ``(at, seq, hold, process)``, with ``hold`` the tuple
  :meth:`~repro.sim.resources.Resource.hold` made, is a *hold-grant
  record*, in the slot a grant record takes.  It draws the service time
  and schedules the *hold-end record*: a resume record, in the slot the
  yielded delay took, for a process whose ``_waiting_on`` is its hold.
  That releases the server (a hand-over takes the seq ``release()`` in
  ``finally`` took), then resumes the process: draws, seqs and resumes
  land where acquire, yielding the request and the drawn delay, and
  releasing put them, with one resume instead of two.

Dispatch follows one total ``(at, seq)`` order.  Two queues hold it: a
heap for entries in the future and a FIFO for entries whose computed
time equals the current clock -- kicks, grants, hold-grants, event
triggers and zero or float-absorbed delays (``now + d == now``), most of
the DES's work.
Every heap entry at ``now`` was pushed before the clock reached ``now``,
so it holds a smaller seq than anything in the FIFO; the loop therefore
drains heap entries at ``now`` first and the FIFO after them, which
reproduces the single-heap order without a heap push or pop for
same-instant work.  A process yielding a bare ``float`` acquires its
sequence number at the same point in the schedule stream as
``yield env.timeout(...)`` does, so the two spellings of a delay
simulate bit-identically.  ``tests/fixtures/sim_order.json`` pins the
dispatch order and ``tests/fixtures/des_golden.json`` the simulator's
output, byte for byte.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:
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
        env._ready.append((env._now, seq, self, None))
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
        env._ready.append((env._now, seq, self, None))
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
    """The simulation clock and its two queues (see the module docstring)."""

    __slots__ = ("_now", "_queue", "_ready", "_seq", "_active", "_n_events")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Entries after ``now``, a heap ordered by ``(at, seq)``.
        self._queue: list[
            tuple[float, int, Optional[Event], Optional["Process"]]
        ] = []
        #: Entries at ``now`` in seq order, drained after the heap's.
        self._ready: deque[
            tuple[float, int, Optional[Event], Optional["Process"]]
        ] = deque()
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
        """Total entries scheduled so far (events and records)."""
        return self._seq

    @property
    def pending_entries(self) -> int:
        """Entries not yet dispatched."""
        return len(self._queue) + len(self._ready)

    @property
    def fast_resumes(self) -> int:
        """Resume, grant and hold records: entries that carry no event.

        Derived as total entries minus event-carrying entries, so the
        hot paths never touch a counter.
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
        # Process subclasses Event and is driven by the loop below, so it
        # lives in its own module, which imports this one.
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, at: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        self._n_events += 1
        if at == self._now:
            self._ready.append((at, seq, event, None))
        else:
            _heappush(self._queue, (at, seq, event, None))

    def _schedule_resume(self, at: float, process: "Process") -> int:
        """Schedule a bare resume record for ``process``; returns its seq.

        The process is resumed with ``None`` when the record is
        dispatched, unless its ``_resume_seq`` no longer matches (the
        record went stale through an interrupt or the process moved on).
        """
        self._seq = seq = self._seq + 1
        if at == self._now:
            self._ready.append((at, seq, None, process))
        else:
            _heappush(self._queue, (at, seq, None, process))
        return seq

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Dispatch exactly one entry (any kind in the module docstring)."""
        queue = self._queue
        if self._ready and not (queue and queue[0][0] == self._now):
            _, seq, event, process = self._ready.popleft()
        elif queue:
            self._now, seq, event, process = _heappop(queue)
        else:
            raise SimulationError("step() on an empty event queue")
        if event is None:
            if process._resume_seq == seq:
                hold = process._waiting_on
                if hold is not None:  # a hold-end record
                    process._waiting_on = None
                    hold[0]._release()
                process._step(None, None)
        elif event.__class__ is tuple:
            if process._resume_seq == seq:  # a live hold-grant record
                _, _, rng, mean, scale = event
                if mean <= 0.0:
                    delay = 0.0
                else:
                    delay = rng.standard_exponential() * mean * scale
                process._resume_seq = self._schedule_resume(self._now + delay, process)
        else:
            # An event, or a grant record: delivering the request as an
            # event resumes its waiting process exactly as the record would.
            event._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run entries until none remain or the clock would pass ``until``.

        Returns the final simulated time.  When ``until`` is given the clock
        is advanced to exactly ``until`` even if no entry lands there.
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
        ready = self._ready
        popleft = ready.popleft
        pop = _heappop
        push = _heappush
        now = self._now
        while True:
            if ready:
                # Heap entries at ``now`` hold smaller seqs than the FIFO's.
                if queue and queue[0][0] == now:
                    at, seq, event, process = pop(queue)
                else:
                    at, seq, event, process = popleft()
            elif queue:
                at, seq, event, process = pop(queue)
                if at > limit:
                    # Too far: restore the entry and stop.
                    push(queue, (at, seq, event, process))
                    break
                self._now = now = at
            else:
                break
            if event is None:
                if process._resume_seq != seq:
                    continue  # stale record (interrupted / moved on)
                hold = process._waiting_on
                if hold is not None:
                    # Hold-end record: release the server, then resume.
                    process._waiting_on = None
                    hold[0]._release()
                value = None
            elif process is None:
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
            elif event.__class__ is tuple:
                # Hold-grant record: draw the service time and schedule
                # the hold-end record in a yielded delay's slot.
                if process._resume_seq != seq:
                    continue  # the hold was withdrawn
                mean = event[3]
                if mean <= 0.0:
                    when = now
                else:
                    when = now + event[2].standard_exponential() * mean * event[4]
                self._seq = seq = self._seq + 1
                if when == now:
                    ready.append((now, seq, None, process))
                else:
                    push(queue, (when, seq, None, process))
                process._resume_seq = seq
                continue
            else:
                # Grant record.  A process that moved on, or other
                # registrations on the request, take the event path.
                if process._resume_seq != seq or event._callbacks is not None:
                    event._process()
                    continue
                event._processed = True
                event._waiter = None
                process._waiting_on = None
                value = event
            # Inline of Process._step for the dominant resume /
            # single-waiter delivery cycle; other yields fall back to
            # Process._wait_on.
            self._active = process
            try:
                target = process._generator.send(value)
            except StopIteration as stop:
                # Here and below: a grant record this step made must not
                # resume the finished process.
                self._active = None
                process._resume_seq = -1
                process.succeed(stop.value)
                continue
            except Interrupt as unhandled:
                self._active = None
                process._resume_seq = -1
                process.fail(unhandled)
                continue
            except Exception as err:
                self._active = None
                process._resume_seq = -1
                process.fail(err)
                continue
            self._active = None
            made = process._waiting_on
            if made is None:
                if target.__class__ is float and target >= 0.0:
                    self._seq = seq = self._seq + 1
                    when = now + target
                    if when == now:
                        ready.append((now, seq, None, process))
                    else:
                        push(queue, (when, seq, None, process))
                    process._resume_seq = seq
                else:
                    process._wait_on(target)
            elif target is made:
                # The hold or request this step made.  A hold's record
                # or waiting-room place exists already; a request needs
                # its waiter registered (its grant record, if any, is
                # already scheduled).
                if target.__class__ is not tuple:
                    if target._callbacks is None:
                        target._waiter = process
                    else:
                        process._wait_on(target)
            else:
                process._wait_on(target)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
