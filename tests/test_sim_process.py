"""Tests for generator processes on the simulation kernel."""

import pytest

from repro.sim.core import Environment, Interrupt, SimulationError
from repro.sim.process import Join, Process


class TestProcessBasics:
    def test_sequential_timeouts(self):
        env = Environment()
        trace = []

        def proc():
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(proc())
        env.run()
        assert trace == [1.0, 3.0]

    def test_return_value_becomes_event_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        env.run()
        assert p.value == "done"

    def test_process_waits_on_process(self):
        env = Environment()
        trace = []

        def child():
            yield env.timeout(2.0)
            return 99

        def parent():
            result = yield env.process(child())
            trace.append((env.now, result))

        env.process(parent())
        env.run()
        assert trace == [(2.0, 99)]

    def test_two_processes_interleave(self):
        env = Environment()
        trace = []

        def proc(name, delay):
            yield env.timeout(delay)
            trace.append(name)
            yield env.timeout(delay)
            trace.append(name)

        env.process(proc("a", 1.0))
        env.process(proc("b", 1.5))
        env.run()
        assert trace == ["a", "b", "a", "b"]

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def proc():
            yield 42  # not an event

        p = env.process(proc())
        env.run()
        assert isinstance(p.exception, SimulationError)

    def test_exception_in_process_captured(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise ValueError("inside")

        p = env.process(proc())
        env.run()
        assert isinstance(p.exception, ValueError)

    def test_failed_event_raises_in_waiter(self):
        env = Environment()
        caught = []

        def proc():
            ev = env.event()
            ev.fail(RuntimeError("nope"))
            try:
                yield ev
            except RuntimeError as err:
                caught.append(str(err))

        env.process(proc())
        env.run()
        assert caught == ["nope"]

    def test_failed_child_propagates_to_parent(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise ValueError("child blew up")

        def parent():
            yield env.process(child())

        p = env.process(parent())
        env.run()
        assert isinstance(p.exception, ValueError)

    def test_active_process(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(env.active_process)
            yield env.timeout(0.0)

        p = env.process(proc())
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self):
        env = Environment()
        trace = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                trace.append((env.now, intr.cause))

        def interrupter(target):
            yield env.timeout(3.0)
            target.interrupt("wake up")

        p = env.process(sleeper())
        env.process(interrupter(p))
        env.run()
        assert trace == [(3.0, "wake up")]

    def test_unhandled_interrupt_fails_process(self):
        env = Environment()

        def sleeper():
            yield env.timeout(100.0)

        def interrupter(target):
            yield env.timeout(1.0)
            target.interrupt()

        p = env.process(sleeper())
        env.process(interrupter(p))
        env.run()
        assert isinstance(p.exception, Interrupt)

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(0.5)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_stale_wakeup_ignored_after_interrupt(self):
        """A process interrupted out of a timeout must not be resumed again
        when the original timeout later fires."""
        env = Environment()
        resumed = []

        def sleeper():
            try:
                yield env.timeout(10.0)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
                yield env.timeout(20.0)
                resumed.append("after")

        def interrupter(target):
            yield env.timeout(1.0)
            target.interrupt()

        p = env.process(sleeper())
        env.process(interrupter(p))
        env.run()
        assert resumed == ["interrupt", "after"]
        assert p.triggered


class TestJoin:
    def test_resumes_when_the_last_child_ends(self):
        env = Environment()
        trace = []

        def child(delay):
            yield delay
            trace.append(("child", env.now))
            return delay

        def parent():
            value = yield Join(env, [child(d) for d in (2.0, 1.0, 3.0)])
            trace.append(("parent", env.now, value))

        env.process(parent())
        env.run()
        assert trace == [
            ("child", 1.0), ("child", 2.0), ("child", 3.0),
            ("parent", 3.0, None),
        ]

    def test_only_the_last_completion_takes_a_slot(self):
        env = Environment()

        def child():
            yield 1.0

        def parent():
            yield Join(env, [child(), child(), child()])

        env.process(parent())
        env.run()
        # parent: kick + completion; children: 3 kicks + 3 delays; the
        # join: one slot for the last child's end.
        assert env.scheduled_entries == 9

    def test_non_generator_child_rejected(self):
        env = Environment()

        def child():
            yield 1.0

        with pytest.raises(SimulationError):
            Join(env, [child(), lambda: None])  # type: ignore[list-item]

    def test_rejected_join_runs_no_child(self):
        env = Environment()
        trace = []

        def child(name):
            trace.append((name, "start", env.now))
            yield 1.0
            trace.append((name, "end", env.now))

        def parent():
            try:
                yield Join(env, [child("a"), child("b"), 42])
            except SimulationError:
                trace.append(("parent", "rejected", env.now))

        env.process(parent())
        env.run()
        assert trace == [("parent", "rejected", 0.0)]

    def test_generator_like_child_accepted(self):
        env = Environment()

        class Ticker:
            """Not a generator function's generator, but has send/throw."""

            def __init__(self):
                self._gen = self._run()

            def _run(self):
                yield 1.0

            def send(self, value):
                return self._gen.send(value)

            def throw(self, exc):
                return self._gen.throw(exc)

        trace = []

        def parent():
            yield Join(env, [Ticker()])
            trace.append(env.now)

        env.process(parent())
        env.run()
        assert trace == [1.0]

    def test_empty_join_succeeds_at_once(self):
        env = Environment()
        trace = []

        def parent():
            yield Join(env, [])
            trace.append(env.now)

        env.process(parent())
        env.run()
        assert trace == [0.0]

    def test_first_failure_fails_the_join(self):
        env = Environment()
        trace = []

        def ok(delay):
            yield delay

        def bad(delay):
            yield delay
            raise ValueError("lost")

        def parent():
            try:
                yield Join(env, [ok(3.0), bad(1.0), bad(2.0)])
            except ValueError as err:
                trace.append((env.now, str(err)))

        env.process(parent())
        env.run()
        assert trace == [(1.0, "lost")]
