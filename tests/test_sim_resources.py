"""Tests for multi-server resources with bounded waiting rooms."""

import numpy as np
import pytest

from repro.sim.core import Environment, Interrupt, SimulationError
from repro.sim.resources import QueueFullError, Resource


def _hold(env, resource, duration, trace=None, name=None):
    req = resource.acquire()
    yield req
    if trace is not None:
        trace.append((name, "start", env.now))
    yield env.timeout(duration)
    req.release()
    if trace is not None:
        trace.append((name, "end", env.now))


class TestResourceBasics:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, 0)
        with pytest.raises(ValueError):
            Resource(env, 1, queue_limit=-1)

    def test_immediate_grant_within_capacity(self):
        env = Environment()
        res = Resource(env, 2)
        trace = []
        env.process(_hold(env, res, 5.0, trace, "a"))
        env.process(_hold(env, res, 5.0, trace, "b"))
        env.run()
        starts = [t for n, kind, t in trace if kind == "start"]
        assert starts == [0.0, 0.0]

    def test_queueing_beyond_capacity(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []
        env.process(_hold(env, res, 2.0, trace, "a"))
        env.process(_hold(env, res, 2.0, trace, "b"))
        env.run()
        assert ("b", "start", 2.0) in trace

    def test_fifo_order(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []
        for name in ("a", "b", "c"):
            env.process(_hold(env, res, 1.0, trace, name))
        env.run()
        starts = [n for n, kind, _ in trace if kind == "start"]
        assert starts == ["a", "b", "c"]

    def test_counts(self):
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 1.0))
        env.process(_hold(env, res, 1.0))
        env.run()
        assert res.granted == 2
        assert res.in_service == 0
        assert res.queue_length == 0


class TestQueueLimit:
    def test_rejection_when_backlog_full(self):
        env = Environment()
        res = Resource(env, 1, queue_limit=1)
        rejected = []

        def client(name):
            req = res.acquire()
            try:
                yield req
            except QueueFullError:
                rejected.append(name)
                return
            yield env.timeout(10.0)
            req.release()

        for name in ("a", "b", "c"):
            env.process(client(name))
        env.run()
        assert rejected == ["c"]
        assert res.rejected == 1

    def test_zero_backlog_is_pure_loss(self):
        env = Environment()
        res = Resource(env, 1, queue_limit=0)
        outcomes = []

        def client(name):
            req = res.acquire()
            try:
                yield req
            except QueueFullError:
                outcomes.append((name, "rejected"))
                return
            outcomes.append((name, "served"))
            yield env.timeout(1.0)
            req.release()

        env.process(client("a"))
        env.process(client("b"))
        env.run()
        assert ("a", "served") in outcomes
        assert ("b", "rejected") in outcomes

    def test_unlimited_queue_never_rejects(self):
        env = Environment()
        res = Resource(env, 1)
        done = []

        def client(i):
            req = res.acquire()
            yield req
            yield env.timeout(0.1)
            req.release()
            done.append(i)

        for i in range(20):
            env.process(client(i))
        env.run()
        assert len(done) == 20
        assert res.rejected == 0


class TestRelease:
    def test_double_release_rejected(self):
        env = Environment()
        res = Resource(env, 1)

        def proc():
            req = res.acquire()
            yield req
            req.release()
            with pytest.raises(SimulationError):
                req.release()

        p = env.process(proc())
        env.run()
        assert p.exception is None

    def test_release_wrong_resource_rejected(self):
        env = Environment()
        a = Resource(env, 1)
        b = Resource(env, 1)

        def proc():
            req = a.acquire()
            yield req
            with pytest.raises(SimulationError):
                b.release(req)
            req.release()

        p = env.process(proc())
        env.run()
        assert p.exception is None

    def test_handover_keeps_busy_count(self):
        """When a release hands the server to a waiter, in_service must not
        dip (the server is transferred, not freed)."""
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 1.0))
        env.process(_hold(env, res, 1.0))

        def check():
            yield env.timeout(1.5)
            assert res.in_service == 1

        env.process(check())
        env.run()

    def test_cancel_waiting_request(self):
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 5.0))

        def canceller():
            yield env.timeout(0.1)
            req = res.acquire()
            assert res.queue_length == 1
            res.cancel(req)
            assert res.queue_length == 0

        p = env.process(canceller())
        env.run()
        assert p.exception is None


class TestUtilization:
    def test_full_utilization(self):
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 10.0))
        env.run()
        assert res.utilization(10.0) == pytest.approx(1.0)

    def test_half_utilization(self):
        env = Environment()
        res = Resource(env, 2)
        env.process(_hold(env, res, 10.0))
        env.run()
        assert res.utilization(10.0) == pytest.approx(0.5)

    def test_reset_stats(self):
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 5.0))
        env.run()
        res.reset_stats()
        env.run(until=10.0)
        assert res.utilization() == pytest.approx(0.0)


class TestGrantRecords:
    """Grants resume the waiting process directly, in the grant's slot."""

    def test_grants_in_a_process_are_records(self):
        env = Environment()
        res = Resource(env, 1)
        env.process(_hold(env, res, 1.0))
        env.process(_hold(env, res, 1.0))
        env.run()
        # The 2 kicks, the grant on the spot and the hand-over resume
        # processes directly; the 2 timeouts and 2 completions are events.
        assert env.fast_resumes == 4
        assert env.scheduled_entries == 8

    def test_acquire_outside_a_process_is_an_event(self):
        env = Environment()
        res = Resource(env, 1)
        req = res.acquire()
        assert env.fast_resumes == 0
        env.run()
        assert req.processed and req.value is req

    def test_value_is_the_request_once_granted(self):
        env = Environment()
        res = Resource(env, 1, queue_limit=1)
        seen = []

        def proc():
            req = res.acquire()
            got = yield req
            seen.append(got is req and req.value is req)
            yield 1.0
            req.release()

        env.process(proc())
        env.process(proc())
        env.run()
        assert seen == [True, True]
        held, queued, rejected = res.acquire(), res.acquire(), res.acquire()
        assert held.value is held
        assert queued.value is None and rejected.value is None
        held.release()
        assert queued.value is queued

    def test_request_yielded_after_another_wait(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []

        def proc():
            req = res.acquire()
            yield env.timeout(1.0)  # the grant is delivered meanwhile
            got = yield req
            trace.append((env.now, got is req))
            req.release()

        env.process(proc())
        env.run()
        assert trace == [(1.0, True)]
        assert res.in_service == 0

    def test_process_ending_right_after_acquire(self):
        env = Environment()
        res = Resource(env, 1)

        def grab():
            req = res.acquire()
            req.release()
            return "done"
            yield  # pragma: no cover - makes this a generator

        p = env.process(grab())
        env.run()
        assert p.value == "done"
        assert res.in_service == 0

    def test_callback_on_request_runs_after_waiter(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []
        box = []

        def holder():
            req = res.acquire()
            box.append(req)
            yield req
            trace.append("holder")
            req.release()

        def watcher():
            # Same instant, after holder yielded, before the grant.
            box[0].add_callback(lambda _e: trace.append("callback"))
            yield 0.0

        env.process(holder())
        env.process(watcher())
        env.run()
        assert trace == ["holder", "callback"]

    def test_interrupted_waiter_is_not_resumed_by_handover(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []

        def waiter():
            req = res.acquire()
            try:
                yield req
            except Interrupt:
                trace.append(("interrupted", env.now))
                req.add_callback(lambda e: e.release())
            yield 5.0
            trace.append(("woke", env.now))

        def interrupter(target):
            yield 0.5
            target.interrupt()

        env.process(_hold(env, res, 1.0))
        w = env.process(waiter())
        env.process(interrupter(w))
        env.run()
        assert trace == [("interrupted", 0.5), ("woke", 5.5)]
        assert res.in_service == 0


def _serve(env, res, rng, mean, spelling, log=None, name=None):
    """Hold a server of ``res`` for a drawn service time, either spelling."""
    if spelling == "hold":
        yield res.hold(rng, mean, 1.5)
    else:
        req = res.acquire()
        yield req
        try:
            if mean <= 0.0:
                yield 0.0
            else:
                yield rng.standard_exponential() * mean * 1.5
        finally:
            req.release()
    if log is not None:
        log.append((name, env.now.hex(), env.scheduled_entries))


def _rng_position(rng):
    return rng.bit_generator.state["state"]["state"]


class TestHold:
    """``yield res.hold(rng, mean, scale)`` against the three-step spelling:
    acquire, yield the request, yield the drawn delay, release."""

    @staticmethod
    def _trace(spelling):
        """Step a contended mix of serves and same-instant draws; record
        the clock, the entries and the generator's position per entry."""
        env = Environment()
        rng = np.random.default_rng(11)
        one, two = Resource(env, 1, name="one"), Resource(env, 2, name="two")
        log = []

        def drawer(name):
            for _ in range(6):
                yield 0.0
                log.append((name, rng.random()))

        for i, (res, mean) in enumerate(
            [(one, 0.5), (two, 0.25), (one, 0.0), (two, 1.0), (one, 0.75),
             (two, 0.0), (one, 1.0), (two, 0.5)]
        ):
            env.process(_serve(env, res, rng, mean, spelling, log, f"s{i}"))
            if i % 3 == 0:
                env.process(drawer(f"d{i}"))
        trace = []
        while env.peek() != float("inf"):
            env.step()
            trace.append(
                (env.now.hex(), env.scheduled_entries, env.pending_entries,
                 _rng_position(rng))
            )
        stats = [
            (r.granted, r.busy_stats.mean(env.now).hex(),
             r.queue_stats.mean(env.now).hex(), r.queue_stats.maximum)
            for r in (one, two)
        ]
        return trace, log, stats

    def test_every_entry_and_draw_lands_where_three_steps_put_it(self):
        held = self._trace("hold")
        stepped = self._trace("acquire")
        assert held[0] == stepped[0]  # grants on the spot and hand-overs
        assert held[1] == stepped[1]
        assert any(name.startswith("d") for name, *_ in held[1])

    def test_integrals_and_grant_counts_match_by_hex(self):
        held = self._trace("hold")[2]
        assert held == self._trace("acquire")[2]
        assert [granted for granted, *_ in held] == [4, 4]
        assert held[0][3] > 0  # serves queued on the capacity-1 resource

    @pytest.mark.parametrize("mean", [0.0, -1.0])
    def test_non_positive_mean_takes_no_time_and_draws_nothing(self, mean):
        env = Environment()
        rng = np.random.default_rng(5)
        before = _rng_position(rng)
        res = Resource(env, 1)
        log = []
        env.process(_serve(env, res, rng, mean, "hold", log, "a"))
        env.run()
        assert _rng_position(rng) == before
        # kick, hold-grant, hold-end, completion: as acquire + yield 0.0.
        assert log == [("a", (0.0).hex(), 3)]
        assert res.in_service == 0 and res.granted == 1

    def test_one_waiting_room_for_requests_and_holds(self):
        env = Environment()
        rng = np.random.default_rng(7)
        res = Resource(env, 1)
        done = []

        def request(name):
            req = res.acquire()
            yield req
            yield 0.25
            req.release()
            done.append(name)

        def hold(name):
            yield res.hold(rng, 0.25, 1.0)
            done.append(name)

        for name in ("r0", "h1", "r2", "h3", "r4", "h5"):
            env.process((hold if name[0] == "h" else request)(name))
        env.run(until=0.0)
        assert res.queue_length == 5
        env.run()
        assert done == ["r0", "h1", "r2", "h3", "r4", "h5"]
        assert res.granted == 6 and res.in_service == 0

    def test_interrupt_withdraws_a_queued_hold(self):
        env = Environment()
        rng = np.random.default_rng(1)
        res = Resource(env, 1)
        trace = []

        def queued():
            try:
                yield res.hold(rng, 1.0, 1.0)
            except Interrupt:
                trace.append(("interrupted", env.now, res.queue_length))

        def interrupter(target):
            yield 0.5
            target.interrupt()

        env.process(_serve(env, res, rng, 4.0, "hold"))
        victim = env.process(queued())
        env.process(interrupter(victim))
        env.run()
        assert trace == [("interrupted", 0.5, 0)]
        assert res.granted == 1 and res.in_service == 0
        # One waiting between 0 and 0.5, as cancel() would leave it.
        assert res.queue_stats.mean(0.5) == 1.0

    def test_interrupt_releases_a_held_server_at_once(self):
        env = Environment()
        rng = np.random.default_rng(2)
        res = Resource(env, 1)
        trace = []

        def holder():
            try:
                yield res.hold(rng, 100.0, 1.0)
                trace.append("served")  # pragma: no cover - interrupted
            except Interrupt:
                trace.append(("interrupted", env.now, res.in_service))
            yield 1.0
            trace.append(("after", env.now))

        def interrupter(target):
            yield 0.5
            target.interrupt()

        victim = env.process(holder())
        env.process(interrupter(victim))
        log = []
        env.process(_serve(env, res, rng, 0.0, "hold", log, "next"))
        env.run()
        # The waiting serve got the server at 0.5; the stale hold-end
        # record never resumed the holder.
        assert trace == [("interrupted", 0.5, 1), ("after", 1.5)]
        assert log[0][:2] == ("next", (0.5).hex())
        assert res.in_service == 0

    def test_interrupt_before_the_grant_is_dispatched_draws_nothing(self):
        env = Environment()
        rng = np.random.default_rng(4)
        before = _rng_position(rng)
        res = Resource(env, 1)
        trace = []
        box = []

        def interrupter():
            box[0].interrupt()
            yield 0.0

        def holder():
            try:
                yield res.hold(rng, 1.0, 1.0)
            except Interrupt:
                trace.append((env.now, res.in_service))

        env.process(interrupter())
        box.append(env.process(holder()))
        env.run()
        # Granted on the spot, released when the interrupt came, before
        # the hold-grant record was dispatched: no draw.
        assert trace == [(0.0, 0)]
        assert _rng_position(rng) == before

    def test_hold_outside_a_process_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, 1).hold(np.random.default_rng(0), 1.0, 1.0)

    @pytest.mark.parametrize("limit,scale", [(0, 1.0), (None, -1.0)])
    def test_hold_on_a_bounded_resource_or_negative_scale_fails(self, limit, scale):
        env = Environment()
        res = Resource(env, 1, queue_limit=limit)

        def proc():
            yield res.hold(np.random.default_rng(0), 1.0, scale)

        p = env.process(proc())
        env.run()
        assert isinstance(p.exception, SimulationError)
        assert res.in_service == 0 and res.granted == 0

    def test_a_hold_not_yielded_at_once_is_withdrawn(self):
        env = Environment()
        res = Resource(env, 1)
        trace = []

        def proc():
            res.hold(np.random.default_rng(0), 1.0, 1.0)
            try:
                yield 1.0
            except SimulationError:
                trace.append((env.now, res.in_service))

        env.process(proc())
        env.run()
        assert trace == [(0.0, 0)]
