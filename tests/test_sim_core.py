"""Tests for the simulation kernel's event loop and primitive events."""

import numpy as np
import pytest

from repro.sim.core import Environment, Event, SimulationError, Timeout
from repro.sim.resources import Resource


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(5.0).now == 5.0

    def test_run_empty_returns_now(self):
        env = Environment()
        assert env.run() == 0.0

    def test_run_until_advances_clock_without_events(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_rejected(self):
        env = Environment(5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_step_empty_rejected(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(3.0)
        assert env.peek() == 3.0
        env.timeout(0.0)  # due now: the same-instant FIFO
        assert env.peek() == 0.0
        assert env.pending_entries == 2


class TestSameInstantOrder:
    """Entries due now go through a FIFO, drained after the heap's."""

    def test_heap_entries_at_now_precede_fifo(self):
        env = Environment()
        order = []

        def proc(name, delays):
            for d in delays:
                yield d
            order.append(name)

        # a and b land on t=1.0 through the heap (pushed at t=0); a's
        # zero delay at t=1.0 then queues behind b's heap entry.
        env.process(proc("a", [1.0, 0.0]))
        env.process(proc("b", [1.0]))
        env.run()
        assert order == ["b", "a"]

    def test_absorbed_delay_keeps_seq_order(self):
        # At 1e6 a 1e-12 delay is absorbed (now + d == now): it is due
        # now and must not overtake the zero delay scheduled before it.
        env = Environment(1e6)
        order = []

        def proc(name, delay):
            yield delay
            order.append((name, env.now))

        env.process(proc("zero", 0.0))
        env.process(proc("absorbed", 1e-12))
        env.run()
        assert order == [("zero", 1e6), ("absorbed", 1e6)]

    def test_step_follows_run_order(self):
        def build(log):
            env = Environment()

            def proc(name, delays):
                for d in delays:
                    yield d
                    log.append((name, env.now))

            env.process(proc("a", [1.0, 0.0, 0.0]))
            env.process(proc("b", [1.0, 0.0]))
            env.process(proc("c", [0.0, 1.0]))
            return env

        ran, stepped = [], []
        build(ran).run()
        env = build(stepped)
        while env.peek() != float("inf"):
            env.step()
        assert stepped == ran


class TestHoldRecords:
    """A hold dispatches as a hold-grant record (draw, schedule the end)
    and a hold-end record (release, then resume the process)."""

    def test_step_dispatches_both_record_kinds(self):
        env = Environment()
        rng = np.random.default_rng(9)
        res = Resource(env, 1)
        trace = []

        def proc():
            yield res.hold(rng, 2.0, 1.0)
            trace.append((env.now, res.in_service))

        env.process(proc())
        env.step()  # the kick: hold() takes the free server
        assert res.in_service == 1 and env.peek() == 0.0
        state = rng.bit_generator.state
        env.step()  # the hold-grant record: one draw, the end scheduled
        assert rng.bit_generator.state != state and trace == []
        end = env.peek()
        assert end > 0.0 and res.in_service == 1
        env.step()  # the hold-end record: release, then resume
        assert trace == [(end, 0)]
        assert env.now == end

    def test_step_follows_run_order_with_holds(self):
        def build(log):
            env = Environment()
            rng = np.random.default_rng(3)
            res = Resource(env, 1)

            def proc(name, mean):
                yield res.hold(rng, mean, 1.0)
                log.append((name, env.now, env.scheduled_entries))
                yield 0.0
                log.append((name, env.now, rng.random()))

            for i, mean in enumerate((0.5, 0.0, 1.0, 0.25)):
                env.process(proc(i, mean))
            return env

        ran, stepped = [], []
        build(ran).run()
        env = build(stepped)
        while env.peek() != float("inf"):
            env.step()
        assert stepped == ran
        assert len(ran) == 8


class TestTimeout:
    def test_fires_at_delay(self):
        env = Environment()
        fired = []
        env.timeout(2.5).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_order_preserved_for_equal_times(self):
        env = Environment()
        order = []
        env.timeout(1.0).add_callback(lambda e: order.append("first"))
        env.timeout(1.0).add_callback(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_value(self):
        env = Environment()
        values = []
        env.timeout(1.0, value="payload").add_callback(
            lambda e: values.append(e.value)
        )
        env.run()
        assert values == ["payload"]

    def test_run_until_excludes_later_events(self):
        env = Environment()
        fired = []
        env.timeout(1.0).add_callback(lambda e: fired.append(1))
        env.timeout(5.0).add_callback(lambda e: fired.append(5))
        env.run(until=2.0)
        assert fired == [1]
        assert env.now == 2.0


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        ev = env.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        env.run()
        assert got == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_fail_sets_exception(self):
        env = Environment()
        ev = env.event()
        boom = RuntimeError("boom")
        ev.fail(boom)
        env.run()
        assert ev.exception is boom

    def test_callback_after_processed_runs_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed(7)
        env.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_triggered_and_processed_flags(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered and not ev.processed
        ev.succeed()
        assert ev.triggered and not ev.processed
        env.run()
        assert ev.processed
