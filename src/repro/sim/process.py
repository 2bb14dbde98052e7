"""Generator-based processes for the simulation kernel."""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Iterable, Optional

from repro.sim.core import Environment, Event, Interrupt, SimulationError

__all__ = ["Process", "Join"]


class Process(Event):
    """A coroutine driven by the event loop.

    A process wraps a generator that yields :class:`Event` objects; the
    process sleeps until each yielded event is processed, then resumes with
    the event's value (or the event's exception thrown in).  The process is
    itself an event: it triggers with the generator's return value, so
    processes can wait on each other.

    A yielded bare ``float`` is a plain delay — equivalent to yielding
    ``env.timeout(delay)``, but it schedules a resume record instead of a
    :class:`~repro.sim.core.Timeout` (no event object, no callback).  The
    delay acquires its schedule position at the yield, exactly where a
    ``Timeout`` constructor would acquire its, so both spellings simulate
    bit-identically.

    ``_waiting_on`` is the event the process waits on.  While the process
    runs it is ``None``, except that a resource acquire or hold made in
    the current step stores its request or hold there (see
    :meth:`repro.sim.resources.Resource.acquire` and ``hold``): when the
    run loop sees the process yield it next, it registers the wait
    without a :meth:`_wait_on` call.  A hold stays there until its
    hold-end record, or an interrupt, takes it back.
    ``_resume_seq`` is the seq of the one record that may resume the
    process; every other record for it is stale.
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_seq")

    def __init__(self, env: Environment, generator: Generator) -> None:
        # Generator functions' generators skip the duck-typing probes.
        if generator.__class__ is not GeneratorType and not (
            hasattr(generator, "send") and hasattr(generator, "throw")
        ):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        # Not super(): CPython 3.11 builds a super object per call.
        Event.__init__(self, env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time via a bare resume record (due now,
        # so it goes straight to the FIFO).
        env._seq = seq = env._seq + 1
        env._ready.append((env._now, seq, None, self))
        self._resume_seq = seq

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        kick = Event(self.env)
        kick.add_callback(lambda _e: self._do_interrupt(cause))
        kick._triggered = True
        self.env._schedule(self.env._now, kick)

    def _do_interrupt(self, cause: Any) -> None:
        if self.triggered:  # finished in the meantime; drop silently
            return
        made = self._waiting_on
        self._waiting_on = None
        self._resume_seq = -1  # invalidate any pending record
        if made.__class__ is tuple:
            # A hold: withdrawn if queued, its server released if granted.
            made[0]._withdraw(made)
        self._step(None, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if event is not self._waiting_on:
            # Stale wakeup: we were interrupted out of this event (and have
            # moved on or finished since).  Ignore it.
            return
        self._waiting_on = None
        if event.exception is not None:
            self._step(None, event.exception)
        else:
            self._step(event.value, None)

    def _wait_on(self, target: Any) -> None:
        """Register the wait for a yield the fast paths do not take.

        That is a real :class:`Event` wait, a delay after an acquire in
        the same step, a hold not yielded at once, a negative delay or a
        non-event (the last three are errors).
        """
        made = self._waiting_on
        if made.__class__ is tuple:  # a hold made, something else yielded
            self._waiting_on = None
            self._resume_seq = -1
            made[0]._withdraw(made)
            self._step(
                None,
                SimulationError(f"a hold must be yielded at once, got {target!r}"),
            )
            return
        if target.__class__ is float:
            if target >= 0.0:
                # The request acquired in this step was not yielded; its
                # grant record goes stale.
                self._waiting_on = None
                env = self.env
                self._resume_seq = env._schedule_resume(env._now + target, self)
                return
            self._step(
                None, SimulationError(f"negative timeout delay: {target}")
            )
            return
        if not isinstance(target, Event):
            self._step(
                None,
                SimulationError(f"process yielded non-event {target!r}"),
            )
            return
        # A grant record made in this step is stale from here on: if the
        # process waits on that request, it gets it as an event.
        self._resume_seq = -1
        self._waiting_on = target
        if (
            not target._processed
            and target._waiter is None
            and not target._callbacks
        ):
            target._waiter = self
        else:
            target.add_callback(self._resume)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        env = self.env
        prev = env._active
        env._active = self
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._resume_seq = -1
            self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            self._resume_seq = -1
            self.fail(unhandled)
            return
        except Exception as err:
            self._resume_seq = -1
            self.fail(err)
            return
        finally:
            env._active = prev

        made = self._waiting_on
        if made is None and target.__class__ is float and target >= 0.0:
            # Bare delay: one resume record, no Event machinery.
            self._resume_seq = env._schedule_resume(env._now + target, self)
        elif target is not made or made.__class__ is not tuple:
            self._wait_on(target)


class Join(Event):
    """Run generators as concurrent child processes; trigger when all end.

    ``yield Join(env, generators)`` resumes the parent at the instant,
    and in the schedule slot, at which the last child finishes: where
    yielding each child process in turn would resume it.  The children
    report to the join instead of triggering completion events of their
    own, so only the last completion takes a slot.  The join succeeds
    with ``None``; the first child to raise fails it with that exception
    at once, and later endings are dropped.  A join over no generators
    succeeds at once.  A join whose construction raises (say, on a
    non-generator) runs none of its children.
    """

    __slots__ = ("_pending",)

    def __init__(self, env: Environment, generators: Iterable[Generator]) -> None:
        Event.__init__(self, env)
        self._pending = 0
        try:
            for generator in generators:
                # A child first runs at its kick, after this constructor.
                _JoinedProcess(env, generator)._join = self
                self._pending += 1
        except BaseException:
            # Withdraw the kicks of the children built so far.
            for _, _, _, process in env._ready:
                if process.__class__ is _JoinedProcess and process._join is self:
                    process._resume_seq = -1
            raise
        if not self._pending:
            self.succeed()


class _JoinedProcess(Process):
    """A :class:`Join` child: its ending counts the join down instead of
    scheduling its own completion event (nothing else can wait on it)."""

    __slots__ = ("_join",)

    def succeed(self, value: Any = None) -> "_JoinedProcess":
        self._triggered = True
        self._value = value
        join = self._join
        join._pending -= 1
        if not join._pending and not join._triggered:
            join.succeed()
        return self

    def fail(self, exc: BaseException) -> "_JoinedProcess":
        self._triggered = True
        self._exc = exc
        if not self._join._triggered:
            self._join.fail(exc)
        return self
