"""Host-speed probe: a fixed reference loop timed beside the measured work.

On a shared host the same work can take a third longer from one minute to
the next.  The benchmark therefore times this loop in the same process just
before and just after each timed phase, while no program work (and no pool
worker) is running, and scales the phase to a fixed nominal probe speed::

    corrected_s = raw_s * NOMINAL_PROBE_S / mean(probe_before_s, probe_after_s)

A corrected time reads as "seconds on a host where one reference loop takes
``NOMINAL_PROBE_S``".  The loop uses no ``repro`` code, so no change to the
program can move it.  It is a miniature of the program's hot paths (an event
heap driving generators, a scalar fixed point plus small-array numpy, and
sorted-tuple configuration keys in a dict), because the host's slow states
do not slow all code alike: a tight arithmetic loop slows by half again
where the simulator slows by a fifth, and correcting with it over-corrects.
"""

from __future__ import annotations

import heapq
import multiprocessing
import statistics
import time

import numpy as np

#: Seconds one reference loop takes on the nominal host (about the loop's
#: quiet-time speed on a 2-CPU x86-64 cloud VM running CPython 3.11).
NOMINAL_PROBE_S = 0.009

#: Loops per probe reading; the reading is their mean.  The host flips
#: between fast and slow states every few hundred milliseconds, so a
#: reading must span several flips to predict a multi-second phase.
PROBE_REPEATS = 25


class _Client:
    __slots__ = ("state", "served")

    def __init__(self, state: int) -> None:
        self.state = state
        self.served = 0


def _think_times(client: _Client):
    while True:
        client.state = (client.state * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        client.served += 1
        yield 0.5 + (client.state % 1000) * 0.007


def _event_loop(clients: int = 400, events: int = 2500) -> float:
    heap = [(0.0, i, _think_times(_Client(i * 7919 + 1))) for i in range(clients)]
    heapq.heapify(heap)
    now = 0.0
    for seq in range(clients, clients + events):
        now, _, proc = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(proc), seq, proc))
    return now


def _fixed_point(stations: int = 6, population: int = 750, rounds: int = 450) -> float:
    demands = [0.004 + 0.003 * k for k in range(stations)]
    queue = [population / stations] * stations
    x = 0.0
    for _ in range(rounds):
        resid = [
            d * (1.0 + q * (population - 1) / population)
            for d, q in zip(demands, queue)
        ]
        x = population / (7.0 + sum(resid))
        queue = [x * r for r in resid]
    vec = np.array(demands)
    for _ in range(60):
        x = float(population / (7.0 + (vec * (1.0 + np.minimum(vec * x, 0.99))).sum()))
    return x


def _config_keys(params: int = 23, rounds: int = 150) -> int:
    table: dict[tuple, int] = {}
    config = {f"node{k % 3}.param{k}": (k * 37) % 101 for k in range(params)}
    for r in range(rounds):
        config[f"node{r % 3}.param{r % params}"] = r
        key = tuple(sorted(config.items()))
        table[key] = table.get(key, 0) + 1
    return len(table)


def reference_loop() -> float:
    """One fixed unit of reference work; returns a checksum of it."""
    return _event_loop() + _fixed_point() + _config_keys()


def _timed_loops(repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        reference_loop()
    return (time.perf_counter() - start) / repeats


def read_probe(repeats: int = PROBE_REPEATS, processes: int = 1) -> float:
    """Mean seconds of ``repeats`` reference loops.

    With ``processes > 1`` that many processes run the loops at once and
    the reading is their mean: a workload spread over worker processes
    runs as fast as the host's CPUs together, which one process cannot see.
    """
    if processes == 1:
        return _timed_loops(repeats)
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        return statistics.fmean(pool.map(_timed_loops, [repeats] * processes))


def correction(before_s: float, after_s: float) -> float:
    """Factor that rescales this host's seconds to nominal-probe seconds."""
    if before_s <= 0 or after_s <= 0:
        raise ValueError("probe readings must be positive")
    return NOMINAL_PROBE_S / ((before_s + after_s) / 2.0)


def corrected(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` scaled to the nominal probe speed."""
    return raw_s * correction(before_s, after_s)


def drift(before_s: float, after_s: float) -> float:
    """Relative disagreement of the two probe readings around one phase."""
    return abs(after_s - before_s) / ((before_s + after_s) / 2.0)
