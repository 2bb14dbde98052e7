"""The DES end to end: kernel throughput, measurement wall-clock, replications.

Three arms, written to ``BENCH_des.json``:

* **Kernel churn** — a delay-dominated workload (50 processes x 1600
  plain-delay yields, the kernel's dominant operation); best-of-N
  entries/second.  The seed kernel's throughput on the same workload,
  measured before it was deleted, is recorded alongside as a fixed
  reference.
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
from repro.tpcw.interactions import SHOPPING_MIX
from repro.util.serialization import atomic_write_json
from repro.util.tables import Table

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_des.json"

#: Kernel-churn workload shape: processes x plain-delay yields each.
CHURN_PROCESSES = 50
CHURN_LOOPS = 1600

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


def _churn_env() -> Environment:
    """The delay-dominated workload."""
    env = Environment()

    def ticker(delay: float):
        for _ in range(CHURN_LOOPS):
            yield delay

    for i in range(CHURN_PROCESSES):
        env.process(ticker(0.001 + i * 1e-6))
    return env


def _run_churn() -> tuple[float, int]:
    """(wall-clock seconds, heap entries dispatched) for one run."""
    env = _churn_env()
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start, env.scheduled_entries


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
    t_churn = float("inf")
    entries = 0
    for _ in range(CHURN_REPEATS):
        dt, entries = _run_churn()
        t_churn = min(t_churn, dt)
    churn_eps = entries / t_churn

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
            "DES end to end: event-kernel churn throughput (with the "
            "deleted seed kernel's last recorded figure for reference), "
            "measurement wall-clock, and serial-vs-parallel replication "
            "identity."
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
        "DES end to end (lean kernel + block-sampled RNG)",
        ["Arm", "Wall-clock", "Note"],
    )
    table.add_row(
        f"kernel churn ({entries:,} entries)",
        f"{t_churn * 1e3:.1f} ms",
        f"{churn_eps:,.0f} entries/s (seed kernel, recorded: "
        f"{SEED_KERNEL_RECORDED['entries_per_second']:,} on "
        f"{SEED_KERNEL_RECORDED['host_cpus']} CPU)",
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
