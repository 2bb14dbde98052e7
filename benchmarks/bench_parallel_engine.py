"""The PR's performance stack, measured end to end.

Three arms over the same workloads:

* **serial** — the pre-engine path: one process, no memoization, every
  measurement point solved with its own scalar MVA fixed point.
* **parallel** — ``--jobs 4`` through the run-plan engine (which
  resolves to the shared fleet) with measurement memoization on (what
  the CLI default does).
* **batched** — one process with the full cache + batched-MVA stack (the
  ``--jobs 1`` default), isolating the single-core gains.

Timings go to ``BENCH_parallel.json`` in the repo root (speedups and
cache hit rates) so future PRs have a perf trajectory.  Every arm must
produce bit-identical results — asserted here, not assumed.

Note the speedup provenance: the serial-vs-parallel gap mixes process
fan-out with the memoization/batching the engine path always enables; on
a single-core runner the latter carries the number, on multi-core boxes
both do.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.analysis.sensitivity import sensitivity_report
from repro.cluster.topology import ClusterSpec
from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig
from repro.model.analytic import AnalyticBackend
from repro.model.base import Scenario
from repro.parallel import SharedEngine
from repro.tpcw.interactions import SHOPPING_MIX
from repro.util.serialization import atomic_write_json

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"

#: Reduced Fig-4 matrix: fewer tuning iterations, full re-measurement
#: protocol (where the measurement reuse the stack targets actually is).
REDUCED = dict(iterations=12, baseline_iterations=20)


class SerialBaselineBackend(AnalyticBackend):
    """The pre-PR measurement path: no solution memo, no batching."""

    def __init__(self) -> None:
        super().__init__(solution_cache_size=0)

    def measure_batch(self, scenario, requests):
        return [self.measure(scenario, c, seed=s) for c, s in requests]


def _canonical(result) -> str:
    return json.dumps(result.canonical_dict(), sort_keys=True)


def _timed_fig4(jobs: int, memoize: bool, serial_backend: bool):
    cfg = ExperimentConfig(**REDUCED, jobs=jobs, memoize=memoize)
    backend = SerialBaselineBackend() if serial_backend else None
    start = time.perf_counter()
    result = fig4.run(cfg, backend=backend)
    return time.perf_counter() - start, result


#: Noise repeats per sweep point (both arms; the batched arm solves each
#: distinct configuration once however many repeats there are).
SWEEP_REPEATS = 5


def _timed_sweep(serial_backend: bool):
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=750)
    backend = SerialBaselineBackend() if serial_backend else AnalyticBackend()
    names = cluster.full_space().names[:10]
    start = time.perf_counter()
    report = sensitivity_report(
        backend, scenario, names=names, repeats=SWEEP_REPEATS, seed=5
    )
    return time.perf_counter() - start, report, backend


def test_parallel_engine_speedups(report):
    t_serial, r_serial = _timed_fig4(jobs=1, memoize=False, serial_backend=True)
    t_parallel, r_parallel = _timed_fig4(jobs=4, memoize=True, serial_backend=False)
    SharedEngine.reset()  # release the fleet before the serial arms
    t_batched, r_batched = _timed_fig4(jobs=1, memoize=True, serial_backend=False)

    # Hard constraint: the fast paths change wall-clock only, never numbers.
    assert _canonical(r_parallel) == _canonical(r_serial)
    assert _canonical(r_batched) == _canonical(r_serial)

    t_sweep_serial, sweep_serial, _ = _timed_sweep(serial_backend=True)
    t_sweep_batched, sweep_batched, sweep_backend = _timed_sweep(
        serial_backend=False
    )
    assert sweep_batched == sweep_serial  # bit-identical curves

    fig4_parallel_speedup = t_serial / t_parallel
    fig4_batched_speedup = t_serial / t_batched
    sweep_speedup = t_sweep_serial / t_sweep_batched

    # Acceptance: >= 2x on the reduced Fig-4 matrix, >= 5x on the
    # sensitivity sweep via batched MVA.
    assert fig4_parallel_speedup >= 2.0
    assert sweep_speedup >= 5.0

    cache_stats = dict(r_batched.cache_stats or {})
    parallel_cache_stats = dict(r_parallel.cache_stats or {})
    solution_stats = sweep_backend.solution_cache_stats.as_dict()
    host_cpus = os.cpu_count() or 1
    oversubscribed = host_cpus < 4
    payload = {
        "schema": "bench_parallel/v2",
        "description": (
            "Reduced Fig-4 matrix + sensitivity sweep: serial no-cache "
            "baseline vs the --jobs 4 shared fleet vs the single-process "
            "cache+batched-MVA stack.  All arms bit-identical (asserted)."
        ),
        "host_cpus": host_cpus,
        "fig4_reduced": {
            "config": REDUCED,
            "serial_seconds": round(t_serial, 3),
            "parallel_jobs4_seconds": round(t_parallel, 3),
            "batched_jobs1_seconds": round(t_batched, 3),
            "parallel_jobs": 4,
            "parallel_engine": "shared",
            "parallel_effective_workers": min(4, host_cpus),
            "oversubscribed": oversubscribed,
            "speedup_provenance": (
                "parallel_speedup mixes process fan-out with the "
                "memoization+batching the engine path enables; on this "
                f"{host_cpus}-CPU host the fleet adds no real concurrency "
                "and the caches carry the number"
                if oversubscribed
                else "parallel_speedup combines process fan-out "
                "with memoization+batching"
            ),
            "parallel_speedup": round(fig4_parallel_speedup, 2),
            "batched_speedup": round(fig4_batched_speedup, 2),
            "cache_stats": cache_stats,
            "parallel_worker_cache_stats": parallel_cache_stats,
            "bit_identical": True,
        },
        "sensitivity_sweep": {
            "parameters": 10,
            "serial_seconds": round(t_sweep_serial, 3),
            "batched_seconds": round(t_sweep_batched, 3),
            "batched_speedup": round(sweep_speedup, 2),
            "solution_cache": solution_stats,
            "bit_identical": True,
        },
    }
    atomic_write_json(RESULT_PATH, payload)

    lines = [
        "Parallel engine benchmark (reduced Fig-4 matrix + sensitivity sweep)",
        f"  fig4 serial        {t_serial:6.2f} s",
        f"  fig4 --jobs 4      {t_parallel:6.2f} s   ({fig4_parallel_speedup:.2f}x)",
        f"  fig4 batched       {t_batched:6.2f} s   ({fig4_batched_speedup:.2f}x)",
        f"  sweep serial       {t_sweep_serial:6.2f} s",
        f"  sweep batched      {t_sweep_batched:6.2f} s   ({sweep_speedup:.2f}x)",
        f"  measurement cache hit rate "
        f"{cache_stats.get('measurement_hit_rate', 0.0) * 100:.0f}%, "
        f"solution cache hit rate "
        f"{cache_stats.get('solution_hit_rate', 0.0) * 100:.0f}%",
        f"  pooled-run worker cache hits (delta-aggregated): "
        f"{parallel_cache_stats.get('measurement_hits', 0):.0f} measurement / "
        f"{parallel_cache_stats.get('solution_hits', 0):.0f} solution",
        f"  host CPUs: {os.cpu_count()}"
        + ("  (jobs=4 oversubscribed)" if oversubscribed else ""),
        f"  results bit-identical across all arms: yes",
        f"  written to {RESULT_PATH.name}",
    ]
    report("parallel_engine", "\n".join(lines))
