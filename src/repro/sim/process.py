"""Generator-based processes for the simulation kernel."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.core import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    _heappush,
)

__all__ = ["Process"]


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
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_seq")

    def __init__(self, env: Environment, generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time via a bare resume record.
        self._resume_seq = env._schedule_resume(env._now, self)

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
        self._waiting_on = None
        self._resume_seq = -1  # invalidate any pending resume record
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
        """Register the wait for a non-plain-delay yield.

        Called after a step when the yielded object is not a non-negative
        ``float``: a real :class:`Event` wait, a negative delay (error) or
        a non-event (error).
        """
        if target.__class__ is float:
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
            self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            self.fail(unhandled)
            return
        except Exception as err:
            self.fail(err)
            return
        finally:
            env._active = prev

        if target.__class__ is float and target >= 0.0:
            # Bare delay: one heap record, no Event machinery.
            self._waiting_on = None
            env._seq = seq = env._seq + 1
            _heappush(env._queue, (env._now + target, seq, None, self))
            self._resume_seq = seq
        else:
            self._wait_on(target)
