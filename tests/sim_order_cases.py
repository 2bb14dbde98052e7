"""Kernel dispatch-order golden cases for ``tests/test_sim_order.py``.

Each case runs a seeded random population of process scripts on one
:class:`~repro.sim.core.Environment` and logs every resume as
``"<now.hex()> <pid> <step> <what>"``.  The scripts draw their next
operation from one shared generator at every step, so a single entry
dispatched out of ``(at, seq)`` order changes the draws and the rest of
the log.  The operations cover what the kernel schedules at the current
instant:

* zero delays, and delays the clock absorbs (at ``now`` = 1e6 a 1e-12
  delay leaves ``now + d == now``), as bare floats and as timeouts;
* capacity-1 and capacity-2 resources with waiting rooms of 0 or 1, so
  grants on the spot, hand-overs and rejections all occur: requests
  yielded at once, after a delay or a timeout, with a callback on them,
  two at a time in either order, given up in the step that made them,
  and abandoned by an interrupted process (cancelled, or left queued to
  be released when granted);
* ``Event.succeed``/``fail`` of a shared signal from another process;
* children that finish before and after their parent waits, children
  nobody waits for, and fan-outs awaited child by child (or, with
  ``join=True``, through one :class:`~repro.sim.process.Join`, which
  must resume the parent in the same place);
* ``interrupt()``, ``add_callback``, single ``step()`` calls and
  ``run(until=...)``.

The *serve* cases (``spelling`` given) add a ``serve`` operation: a
server of an unbounded capacity-1 or capacity-2 resource held for a
service time drawn from the shared generator at the grant, around a
mean drawn from :data:`DELAYS` (zero and the absorbed 1e-12 included).
Spelled ``"acquire"`` it takes three steps: acquire and yield the
request, yield ``rng.standard_exponential() * mean * 1.0`` (``0.0`` for
a zero mean), release in ``finally``, and cancel the request if an
interrupt finds it queued (release it if one finds it granted).
Spelled ``"hold"`` it is one ``yield res.hold(rng, mean, 1.0)``.  The
other scripts' requests share those waiting rooms with the serves.
Serve cases step through the first stretch one ``step()`` at a time.

The fixture (``tests/fixtures/sim_order.json``) holds both.  Its
``cases`` were generated by the heap-only kernel, which dispatched every
entry through one ``(at, seq)``-ordered heap; its ``serve_cases`` by the
kernel with a same-instant FIFO and grant records, with the three-step
spelling, before any other spelling of a serve existed.  Regenerate it
only for a deliberate change of dispatch order, and review its diff::

    PYTHONPATH=src python -m tests.sim_order_cases
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.sim.core import Environment, Interrupt
from repro.sim.process import Join
from repro.sim.resources import QueueFullError, Resource

__all__ = [
    "CASES",
    "SERVE_CASES",
    "FIXTURE_PATH",
    "Script",
    "run_case",
    "generate_fixture",
]

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "sim_order.json"

#: (seed, initial clock) pairs.  At 1e6 the 1e-12 delay is absorbed.
CASES = tuple((seed, t0) for t0 in (0.0, 1e6) for seed in range(1, 7))
#: The serve cases: enough that interrupts find serves queued, granted
#: (grant not yet dispatched) and serving.
SERVE_CASES = tuple((seed, t0) for t0 in (0.0, 1e6) for seed in range(1, 11))

#: Delays the scripts draw: zeros, one the 1e6 clock absorbs, and dyadic
#: values whose sums tie exactly.
DELAYS = (0.0, 0.0, 1e-12, 0.25, 0.5, 1.0)

#: Top-level processes per case and operations per process.
PROCESSES = 8
STEPS = 10

#: ``run(until=...)`` stops, as offsets from the initial clock (0.5
#: twice: a stop at the current time is legal and dispatches nothing).
RUN_STOPS = (0.5, 0.5, 1.75, 4.0)

OPS = (
    "delay", "timeout", "hold", "hold_late", "hold_watched", "hold_pair",
    "grab", "wait", "signal", "spawn", "spawn_late", "spawn_free", "fanout",
    "interrupt", "callback",
)
#: Children run short scripts without spawning (bounded recursion).
CHILD_OPS = (
    "delay", "timeout", "hold", "hold_late", "hold_pair", "grab", "signal",
    "callback",
)
#: The serve cases draw from these instead (serves and interrupts
#: weighted up, so interrupts often find a serve).
SERVE_OPS = OPS + ("serve",) * 4 + ("interrupt",) * 3
SERVE_CHILD_OPS = CHILD_OPS + ("serve",)


class SignalFailed(Exception):
    """The exception a failed shared signal carries."""


def _release_granted(request) -> None:
    """Callback returning the server of an abandoned, now granted request."""
    if request.exception is None:
        request.release()


class Script:
    """One case: the environment, its shared objects and the resume log.

    ``spelling`` is ``None`` for the original cases, or how the serve
    cases spell a serve (``"acquire"``: the three steps; ``"hold"``).
    """

    def __init__(
        self, seed: int, t0: float, join: bool = False, spelling=None
    ) -> None:
        self.env = Environment(initial_time=t0)
        self.t0 = t0
        self.join = join
        self.spelling = spelling
        self.rng = np.random.default_rng(seed)
        self.log: list[str] = []
        self.resources = [
            Resource(self.env, cap, queue_limit=limit, name=f"c{cap}q{limit}")
            for cap in (1, 2)
            for limit in (0, 1)
        ]
        #: Unbounded resources the serves hold; requests queue there too.
        self.servers = []
        if spelling is not None:
            self.servers = [
                Resource(self.env, cap, name=f"u{cap}") for cap in (1, 2)
            ]
            self.resources += self.servers
        self.ops = OPS if spelling is None else SERVE_OPS
        self.child_ops = CHILD_OPS if spelling is None else SERVE_CHILD_OPS
        #: Processes inside a serve (interrupts favour them).
        self.serving: set = set()
        #: Where interrupts found the three-step serves (not logged).
        self.serve_interrupts = {"queued": 0, "granted": 0, "serving": 0}
        self.signal = self.env.event()
        #: Processes other scripts may interrupt or register callbacks on.
        self.targets: list = []
        #: The latest request, which other scripts may register callbacks on.
        self.last_request = None
        #: Processes waiting in a resource queue (interrupts favour them).
        self.queued: dict = {}
        self.next_pid = 0

    # -- helpers ----------------------------------------------------------
    def note(self, pid: int, step: int, what: str) -> None:
        self.log.append(f"{self.env.now.hex()} {pid} {step} {what}")

    def pick(self, n: int) -> int:
        return int(self.rng.integers(n))

    def delay(self) -> float:
        return DELAYS[self.pick(len(DELAYS))]

    def acquire(self):
        res = self.resources[self.pick(len(self.resources))]
        req = res.acquire()
        self.last_request = req
        return req

    def wait_for(self, req):
        """Yield ``req``, noting the process while it waits in a queue."""
        proc = self.env.active_process
        if not req.triggered:
            self.queued[proc] = req
        try:
            yield req
        finally:
            self.queued.pop(proc, None)

    def abandon(self, req) -> None:
        """Give up ``req`` after an interrupt."""
        if req.triggered:
            if req.exception is None:
                req.release()
        elif self.rng.random() < 0.5:
            req.resource.cancel(req)
        else:
            req.add_callback(_release_granted)

    def program(self, ops: tuple, steps: int):
        """A fresh script generator with its own pid."""
        pid = self.next_pid
        self.next_pid += 1
        return self._program(pid, ops, steps)

    def spawn(self, ops: tuple, steps: int):
        proc = self.env.process(self.program(ops, steps))
        self.targets.append(proc)
        return proc

    def _program(self, pid: int, ops: tuple, steps: int):
        for step in range(steps):
            op = ops[self.pick(len(ops))]
            try:
                yield from getattr(self, "_" + op)(pid, step)
            except Interrupt as intr:
                self.note(pid, step, f"interrupted-by-{intr.cause}")
        self.note(pid, steps, "end")
        return pid

    # -- operations -------------------------------------------------------
    def _delay(self, pid: int, step: int):
        yield self.delay()
        self.note(pid, step, "delay")

    def _timeout(self, pid: int, step: int):
        yield self.env.timeout(self.delay())
        self.note(pid, step, "timeout")

    def _hold(self, pid: int, step: int, mode: str = "now"):
        req = self.acquire()
        name = req.resource.name
        try:
            if mode == "late":
                # The grant (or rejection) is delivered while the process
                # waits on a delay or a timeout; it yields the request after.
                if self.rng.random() < 0.5:
                    yield self.delay()
                else:
                    yield self.env.timeout(self.delay())
                self.note(pid, step, f"late-{name}")
            elif mode == "watched":
                req.add_callback(lambda _e: self.note(pid, step, "watched"))
            yield from self.wait_for(req)
        except QueueFullError:
            self.note(pid, step, f"rejected-{name}")
            return
        except Interrupt:
            self.abandon(req)
            raise
        self.note(pid, step, f"granted-{name}")
        try:
            yield self.delay()
            self.note(pid, step, f"served-{name}")
        finally:
            req.release()

    def _hold_late(self, pid: int, step: int):
        yield from self._hold(pid, step, mode="late")

    def _hold_watched(self, pid: int, step: int):
        yield from self._hold(pid, step, mode="watched")

    def _hold_pair(self, pid: int, step: int):
        """Two requests made in one step, yielded in a random order."""
        reqs = [self.acquire(), self.acquire()]
        if self.rng.random() < 0.5:
            reqs.reverse()
        held = []
        try:
            for req in reqs:
                try:
                    yield from self.wait_for(req)
                except QueueFullError:
                    self.note(pid, step, f"pair-rejected-{req.resource.name}")
                    continue
                held.append(req)
                self.note(pid, step, f"pair-granted-{req.resource.name}")
            yield self.delay()
            self.note(pid, step, "pair-served")
        except Interrupt:
            for req in reqs:
                if req not in held:
                    self.abandon(req)
            raise
        finally:
            for req in held:
                req.release()

    def _grab(self, pid: int, step: int):
        """Acquire and give the request up in the same step."""
        req = self.acquire()
        if not req.triggered:
            req.resource.cancel(req)
            what = "cancelled"
        elif req.exception is None:
            req.release()
            what = "released"
        else:
            what = "refused"
        self.note(pid, step, f"grab-{what}-{req.resource.name}")
        yield from ()

    def _wait(self, pid: int, step: int):
        try:
            value = yield self.signal
        except SignalFailed as err:
            self.note(pid, step, f"signal-failed-{err.args[0]}")
            return
        self.note(pid, step, f"signal-{value}")

    def _signal(self, pid: int, step: int):
        event = self.signal
        self.signal = self.env.event()
        if self.rng.random() < 0.3:
            event.fail(SignalFailed(pid))
        else:
            event.succeed(pid)
        self.note(pid, step, "signalled")
        yield self.delay()
        self.note(pid, step, "after-signal")

    def _spawn(self, pid: int, step: int, mode: str = "now"):
        child = self.spawn(self.child_ops, 1 + self.pick(3))
        if mode == "free":  # nobody ever waits for this child
            yield self.delay()
            self.note(pid, step, "left-child")
            return
        if mode == "late":  # the child may finish before the wait
            yield self.delay()
        value = yield child
        self.note(pid, step, f"child-{value}")

    def _spawn_late(self, pid: int, step: int):
        yield from self._spawn(pid, step, mode="late")

    def _spawn_free(self, pid: int, step: int):
        yield from self._spawn(pid, step, mode="free")

    def _fanout(self, pid: int, step: int):
        count = 1 + self.pick(3)
        children = [
            self.program(self.child_ops, 1 + self.pick(2)) for _ in range(count)
        ]
        if self.join:
            yield Join(self.env, children)
        else:
            for proc in [self.env.process(gen) for gen in children]:
                yield proc
        self.note(pid, step, f"joined-{count}")

    def _interrupt(self, pid: int, step: int):
        active = self.env.active_process
        live = [p for p in self.targets if p.is_alive and p is not active]
        queued = [p for p in live if p in self.queued]
        if queued and self.rng.random() < 0.5:
            live = queued
        elif self.serving and self.rng.random() < 0.5:
            live = [p for p in live if p in self.serving] or live
        if live:
            live[self.pick(len(live))].interrupt(pid)
            self.note(pid, step, "interrupt")
        yield self.delay()
        self.note(pid, step, "after-interrupt")

    def _callback(self, pid: int, step: int):
        u = self.rng.random()
        if u < 0.4 and self.last_request is not None:
            target = self.last_request
        elif u < 0.7 and self.targets:
            target = self.targets[self.pick(len(self.targets))]
        else:
            target = self.signal
        target.add_callback(lambda _e: self.note(pid, step, "callback"))
        yield self.delay()
        self.note(pid, step, "after-callback")

    def _serve(self, pid: int, step: int):
        """Hold a server for a service time drawn when it is granted."""
        res = self.servers[self.pick(len(self.servers))]
        mean = self.delay()
        proc = self.env.active_process
        self.serving.add(proc)
        try:
            yield from self._serve_spelled(res, mean)
        finally:
            self.serving.discard(proc)
        self.note(pid, step, f"held-{res.name}")

    def _serve_spelled(self, res, mean: float):
        if self.spelling == "hold":
            yield res.hold(self.rng, mean, 1.0)
            return
        req = res.acquire()
        try:
            yield req
        except Interrupt:
            if req.triggered:
                self.serve_interrupts["granted"] += 1
                req.release()
            else:
                self.serve_interrupts["queued"] += 1
                res.cancel(req)
            raise
        try:
            if mean > 0.0:
                yield self.rng.standard_exponential() * mean * 1.0
            else:
                yield 0.0
        except Interrupt:
            self.serve_interrupts["serving"] += 1
            raise
        finally:
            req.release()

    # -- running a case -------------------------------------------------
    def run(self) -> list[str]:
        env = self.env
        for _ in range(PROCESSES):
            self.spawn(self.ops, STEPS)
        if self.spelling is None:
            for _ in range(3):
                env.step()
        else:
            while env.peek() <= self.t0 + RUN_STOPS[0]:
                env.step()
        self.log.append(f"stepped {env.now.hex()}")
        for offset in RUN_STOPS:
            env.run(until=self.t0 + offset)
            self.log.append(f"ran {env.now.hex()}")
        env.run()
        self.log.append(f"drained {env.now.hex()}")
        return self.log


def run_case(
    seed: int, t0: float, join: bool = False, spelling=None
) -> list[str]:
    """The resume log of one case (fan-outs through a Join if ``join``;
    a serve case if ``spelling`` is given)."""
    return Script(seed, t0, join, spelling).run()


def generate_fixture() -> dict:
    """Run every case on the current kernel and return the payload."""
    return {
        "schema": "sim_order/v1",
        "cases": [
            {"seed": seed, "t0": t0.hex(), "log": run_case(seed, t0)}
            for seed, t0 in CASES
        ],
        "serve_cases": [
            {
                "seed": seed,
                "t0": t0.hex(),
                "log": run_case(seed, t0, spelling="acquire"),
            }
            for seed, t0 in SERVE_CASES
        ],
    }


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    payload = generate_fixture()
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    cases = payload["cases"] + payload["serve_cases"]
    entries = sum(len(c["log"]) for c in cases)
    print(f"wrote {FIXTURE_PATH} ({len(cases)} cases, {entries} lines)")
