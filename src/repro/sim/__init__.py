"""A small discrete-event simulation kernel.

This is the substrate for the request-level backend (:mod:`repro.des`).  It
is deliberately SimPy-flavoured — generator-based processes communicating
through events and resources — but written from scratch and reduced to what
the cluster models need:

* :mod:`repro.sim.core` — :class:`~repro.sim.core.Environment`, the event
  loop and simulated clock, and its events,
* :mod:`repro.sim.process` — :class:`~repro.sim.process.Process`, a
  generator coroutine driven by the loop, and
  :class:`~repro.sim.process.Join`, one event for a fan-out of child
  processes,
* :mod:`repro.sim.resources` — :class:`~repro.sim.resources.Resource`, a
  multi-server queueing resource with an optional bounded waiting room
  (rejects when full, like a TCP accept backlog);
  ``yield res.hold(rng, mean, scale)`` holds a server for a sampled
  service time in one resume.  Utilization is accounted with
  :class:`repro.util.stats.TimeWeightedStats`.

Design notes (performance): entries are ``(time, sequence, event,
process)`` tuples dispatched in ``(time, sequence)`` order; the sequence
number breaks ties FIFO and avoids comparing event objects.  Entries due
later sit in a binary heap; entries due at the current instant (grants,
hold-grants, kicks, triggers, zero delays) go through a FIFO, which keeps
the same order without a heap push or pop.  Processes are plain generators — no
thread or greenlet machinery — so a run costs about one queue operation
plus one ``send`` per entry.
"""
