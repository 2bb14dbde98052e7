"""Tests for multi-server resources with bounded waiting rooms."""

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
