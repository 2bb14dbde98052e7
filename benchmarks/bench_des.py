"""The DES end to end: kernel throughput, measurement wall-clock, replications.

Five arms, written to ``BENCH_des.json``:

* **Kernel churn** — a delay-dominated workload (50 processes x 1600
  plain-delay yields, the kernel's dominant operation); best-of-N
  entries/second.  The seed kernel's throughput on the same workload,
  measured before it was deleted, is recorded alongside as a fixed
  reference.
* **Kernel contention** — 50 processes x 800 acquire/delay/release
  loops on one capacity-2 resource, so most acquires queue and half the
  entries are grants and hand-overs at the current instant; best-of-N
  entries/second.  The heap-only kernel's throughput on the same
  workload, measured before same-instant entries moved to a FIFO, is
  recorded alongside as a fixed reference.
* **Kernel holds** — the contention loop spelled with
  ``Resource.hold``: one yield per loop holds a server for a drawn
  service time around the same mean, with the same number of entries
  (a hold-grant and a hold-end record per loop instead of a grant and a
  resume record); best-of-N entries/second.
* **Measurement wall-clock** — a full ``SimulationBackend.measure`` on a
  TPC-W scenario, best-of-N.
* **Replications** — ``replications=4`` merged serially and via the
  parallel executor must be identical; both wall-clocks are reported.

Nothing here is a speed gate: byte identity is gated by
``tests/test_des_golden.py`` and DES speed by the ``des-validate``
workload of ``perfbench/``.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend
from repro.model.base import Measurement, Scenario
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.tpcw.interactions import SHOPPING_MIX
from repro.util.rng import spawn_rng
from repro.util.serialization import atomic_write_json
from repro.util.tables import Table

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_des.json"

#: Kernel-churn workload shape: processes x plain-delay yields each.
CHURN_PROCESSES = 50
CHURN_LOOPS = 1600

#: Contention workload shape: processes x acquire/delay/release loops
#: on one resource of this capacity.
CONTENDED_PROCESSES = 50
CONTENDED_LOOPS = 800
CONTENDED_CAPACITY = 2

#: Repetitions per arm (best-of; the host is noisy).
CHURN_REPEATS = 9
MEASURE_REPEATS = 6

#: The seed kernel on the churn workload, last measured before it was
#: deleted: interleaved best-of-9 against the lean kernel on a 1-CPU host.
SEED_KERNEL_RECORDED = {
    "entries_per_second": 558_623,
    "lean_kernel_entries_per_second": 2_058_896,
    "speedup": 3.69,
    "host_cpus": 1,
}


#: The heap-only kernel on the contention workload, last measured before
#: same-instant entries moved to a FIFO: median of 9 best-of-9 runs
#: interleaved with the FIFO kernel's on a 2-CPU host.
HEAP_KERNEL_RECORDED = {
    "entries_per_second": 551_295,
    "fifo_kernel_entries_per_second": 720_041,
    "speedup": 1.31,
    "host_cpus": 2,
}


def _churn_env() -> Environment:
    """The delay-dominated workload."""
    env = Environment()

    def ticker(delay: float):
        for _ in range(CHURN_LOOPS):
            yield delay

    for i in range(CHURN_PROCESSES):
        env.process(ticker(0.001 + i * 1e-6))
    return env


def _contended_env() -> Environment:
    """Processes competing for one small resource: most acquires queue."""
    env = Environment()
    res = Resource(env, CONTENDED_CAPACITY, name="contended")

    def worker(delay: float):
        for _ in range(CONTENDED_LOOPS):
            req = res.acquire()
            yield req
            yield delay
            req.release()

    for i in range(CONTENDED_PROCESSES):
        env.process(worker(0.001 + i * 1e-6))
    return env


def _hold_env() -> Environment:
    """The contention workload with each loop one hold."""
    env = Environment()
    res = Resource(env, CONTENDED_CAPACITY, name="contended")
    rng = spawn_rng(0, "bench.des.hold")

    def worker(mean: float):
        for _ in range(CONTENDED_LOOPS):
            yield res.hold(rng, mean, 1.0)

    for i in range(CONTENDED_PROCESSES):
        env.process(worker(0.001 + i * 1e-6))
    return env


def _best_run(build, repeats: int) -> tuple[float, int]:
    """Best-of-``repeats`` (wall-clock seconds, entries dispatched)."""
    best = float("inf")
    entries = 0
    for _ in range(repeats):
        env = build()
        start = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - start)
        entries = env.scheduled_entries
    return best, entries


def _scenario() -> tuple[Scenario, dict]:
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=120)
    return scenario, cluster.default_configuration()


def _hex_measurement(m: Measurement) -> dict:
    """Byte-exact JSON form (mirrors tests/des_golden_cases.py)."""
    return {
        "wips": m.wips.hex(),
        "raw_wips": m.raw_wips.hex(),
        "error_rate": m.error_rate.hex(),
        "response_time": m.response_time.hex(),
        "utilization": {
            node: {k: float(v).hex() for k, v in sorted(u.as_dict().items())}
            for node, u in sorted(m.utilization.items())
        },
        "diagnostics": {
            k: float(v).hex() for k, v in sorted(m.diagnostics.items())
        },
    }


def test_des_end_to_end(report):
    # --- arm 1: kernel churn ----------------------------------------------
    t_churn, entries = _best_run(_churn_env, CHURN_REPEATS)
    churn_eps = entries / t_churn

    # --- arm 1b: kernel contention ----------------------------------------
    t_contended, contended_entries = _best_run(_contended_env, CHURN_REPEATS)
    contended_eps = contended_entries / t_contended

    # --- arm 1c: the contention loop spelled with holds -------------------
    t_hold, hold_entries = _best_run(_hold_env, CHURN_REPEATS)
    assert hold_entries == contended_entries
    hold_eps = hold_entries / t_hold

    # --- arm 2: end-to-end measurement wall-clock -------------------------
    scenario, config = _scenario()
    backend = SimulationBackend(time_scale=0.05)
    t_measure = float("inf")
    for _ in range(MEASURE_REPEATS):
        start = time.perf_counter()
        backend.measure(scenario, config, seed=3)
        t_measure = min(t_measure, time.perf_counter() - start)

    # --- arm 3: replications, serial == parallel -------------------------
    # At least two workers even on a one-core host, so the identity
    # assertion genuinely crosses the worker-fleet merge path.
    jobs = max(2, min(4, os.cpu_count() or 1))
    serial = SimulationBackend(
        time_scale=0.05, replications=4, replication_jobs=1
    )
    parallel = SimulationBackend(
        time_scale=0.05, replications=4, replication_jobs=jobs
    )
    start = time.perf_counter()
    m_serial = serial.measure(scenario, config, seed=3)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    m_parallel = parallel.measure(scenario, config, seed=3)
    t_parallel = time.perf_counter() - start
    assert _hex_measurement(m_serial) == _hex_measurement(m_parallel)
    ci95 = m_serial.diagnostics["replication.wips_ci95"]

    payload = {
        "schema": "bench_des/v2",
        "description": (
            "DES end to end: event-kernel churn, contention and hold "
            "throughput (with the earlier kernels' last recorded figures "
            "for reference), measurement wall-clock, and "
            "serial-vs-parallel replication identity."
        ),
        "host_cpus": os.cpu_count(),
        "kernel_churn": {
            "workload": (
                f"{CHURN_PROCESSES} processes x {CHURN_LOOPS} "
                "plain-delay yields"
            ),
            "entries_dispatched": entries,
            "protocol": f"best-of-{CHURN_REPEATS} wall-clock",
            "seconds": round(t_churn, 6),
            "entries_per_second": round(churn_eps),
            "seed_kernel_recorded": SEED_KERNEL_RECORDED,
        },
        "kernel_contended": {
            "workload": (
                f"{CONTENDED_PROCESSES} processes x {CONTENDED_LOOPS} "
                "acquire/delay/release loops on one capacity-"
                f"{CONTENDED_CAPACITY} resource"
            ),
            "entries_dispatched": contended_entries,
            "protocol": f"best-of-{CHURN_REPEATS} wall-clock",
            "seconds": round(t_contended, 6),
            "entries_per_second": round(contended_eps),
            "heap_kernel_recorded": HEAP_KERNEL_RECORDED,
        },
        "kernel_hold": {
            "workload": (
                f"{CONTENDED_PROCESSES} processes x {CONTENDED_LOOPS} "
                "hold loops (drawn service time) on one capacity-"
                f"{CONTENDED_CAPACITY} resource"
            ),
            "entries_dispatched": hold_entries,
            "protocol": f"best-of-{CHURN_REPEATS} wall-clock",
            "seconds": round(t_hold, 6),
            "entries_per_second": round(hold_eps),
        },
        "measure_wall_clock": {
            "scenario": "three_tier(1,1,1), shopping mix, N=120",
            "time_scale": 0.05,
            "protocol": f"best-of-{MEASURE_REPEATS}",
            "seconds": round(t_measure, 4),
        },
        "replications": {
            "replications": 4,
            "parallel_jobs": jobs,
            "serial_seconds": round(t_serial, 3),
            "parallel_seconds": round(t_parallel, 3),
            "wips": round(m_serial.wips, 4),
            "wips_ci95": round(ci95, 4),
            "serial_parallel_identical": True,
        },
    }
    atomic_write_json(RESULT_PATH, payload)

    table = Table(
        "DES end to end (lean kernel, same-instant FIFO, hold records)",
        ["Arm", "Wall-clock", "Note"],
    )
    table.add_row(
        f"kernel churn ({entries:,} entries)",
        f"{t_churn * 1e3:.1f} ms",
        f"{churn_eps:,.0f} entries/s (seed kernel, recorded: "
        f"{SEED_KERNEL_RECORDED['entries_per_second']:,} on "
        f"{SEED_KERNEL_RECORDED['host_cpus']} CPU)",
    )
    table.add_row(
        f"kernel contention ({contended_entries:,} entries)",
        f"{t_contended * 1e3:.1f} ms",
        f"{contended_eps:,.0f} entries/s (heap-only kernel, recorded: "
        f"{HEAP_KERNEL_RECORDED['entries_per_second']:,} on "
        f"{HEAP_KERNEL_RECORDED['host_cpus']} CPUs)",
    )
    table.add_row(
        f"kernel holds ({hold_entries:,} entries)",
        f"{t_hold * 1e3:.1f} ms",
        f"{hold_eps:,.0f} entries/s (the contention loop as one hold)",
    )
    table.add_row("measure() wall-clock", f"{t_measure * 1e3:.0f} ms", "")
    table.add_row(
        "replications R=4",
        f"{t_parallel * 1e3:.0f} ms (jobs={jobs})",
        f"{t_serial * 1e3:.0f} ms serial",
    )
    report(
        "des_fast_path",
        table,
        f"byte-identical: serial == parallel replications "
        f"({m_serial.wips:.2f} WIPS +/- {ci95:.2f} 95% CI over 4 "
        f"replications)",
    )
