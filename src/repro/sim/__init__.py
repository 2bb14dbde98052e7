"""A small discrete-event simulation kernel.

This is the substrate for the request-level backend (:mod:`repro.des`).  It
is deliberately SimPy-flavoured — generator-based processes communicating
through events and resources — but written from scratch and reduced to what
the cluster models need:

* :class:`Environment` — the event loop and simulated clock,
* :class:`Process` — a generator coroutine driven by the loop,
* :class:`Join` — one event for a fan-out of child processes,
* :class:`Resource` — a multi-server queueing resource with an optional
  bounded waiting room (rejects when full, like a TCP accept backlog);
  ``yield res.hold(rng, mean, scale)`` holds a server for a sampled
  service time in one resume,
* :class:`Monitor` / :class:`repro.util.TimeWeightedStats` integration for
  utilization accounting.

Design notes (performance): entries are ``(time, sequence, event,
process)`` tuples dispatched in ``(time, sequence)`` order; the sequence
number breaks ties FIFO and avoids comparing event objects.  Entries due
later sit in a binary heap; entries due at the current instant (grants,
hold-grants, kicks, triggers, zero delays) go through a FIFO, which keeps
the same order without a heap push or pop.  Processes are plain generators — no
thread or greenlet machinery — so a run costs about one queue operation
plus one ``send`` per entry.
"""

from repro.sim.core import Environment, Event, Interrupt, SimulationError, Timeout
from repro.sim.process import Join, Process
from repro.sim.resources import AcquireRequest, QueueFullError, Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Interrupt",
    "SimulationError",
    "Process",
    "Join",
    "Resource",
    "AcquireRequest",
    "QueueFullError",
]
