"""The shared persistent engine vs the per-run inline engine, end to end.

Five arms over the reduced Fig-4 matrix, all asserted bit-identical:

* **serial (no cache)** — inline, no memoization, scalar solves.
* **inline --jobs 1** — the default serial engine: fresh caches per run,
  which die with the run.
* **shared --jobs 1 (cold)** — the serial in-process path over the
  persistent shared caches, starting empty.
* **shared --jobs 1 (warm)** — the same run again on the same engine:
  the cross-run payoff, served from the persistent shared cache.
* **shared --jobs 2 (fleet)** — the persistent worker fleet over the
  Manager-backed store, warm from the earlier runs.

Plus a reduced Table-4 pass (inline vs shared, cold and warm) on the
multi-node cluster workload.

The gates are the ones a single core can demonstrate: the cold shared
``jobs=1`` path beating the serial no-cache baseline, a >= 2x cross-run
speedup from the shared cache (warm shared vs inline), and a
cross-run/cross-worker shared-cache hit rate above zero.  The fleet
run's wall-clock is recorded, not gated.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from bench_parallel_engine import REDUCED, SerialBaselineBackend

from repro.experiments import fig4, table4
from repro.experiments.runner import ExperimentConfig
from repro.parallel import SharedEngine
from repro.util.serialization import atomic_write_json

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_shared_engine.json"

#: Reduced Table-4 protocol (the multi-node cluster workload).
TABLE4_REDUCED = dict(
    iterations=8, baseline_iterations=4, cluster_population=1800
)


def _canonical(result) -> str:
    return json.dumps(result.canonical_dict(), sort_keys=True)


def _table4_canonical(result) -> str:
    """Table4Result in a JSON-stable form (it has no canonical_dict)."""
    return json.dumps(
        {
            "baseline": [result.baseline_wips, result.baseline_stddev],
            "rows": {
                m: [r.wips, r.stddev, r.improvement, r.iterations_to_converge]
                for m, r in sorted(result.rows.items())
            },
            "trajectories": {
                m: list(h.performances())
                for m, h in sorted(result.histories.items())
            },
        },
        sort_keys=True,
    )


def _timed_fig4(engine: str, jobs: int, serial_backend: bool = False):
    cfg = ExperimentConfig(
        **REDUCED, engine=engine, jobs=jobs, memoize=not serial_backend
    )
    backend = SerialBaselineBackend() if serial_backend else None
    start = time.perf_counter()
    result = fig4.run(cfg, backend=backend)
    return time.perf_counter() - start, result


def _timed_table4(engine: str):
    cfg = ExperimentConfig(**TABLE4_REDUCED, engine=engine)
    start = time.perf_counter()
    result = table4.run(cfg)
    return time.perf_counter() - start, result


def test_shared_engine_speedups(report):
    host_cpus = os.cpu_count() or 1

    t_serial, r_serial = _timed_fig4("inline", 1, serial_backend=True)
    t_inline1, r_inline1 = _timed_fig4("inline", 1)

    SharedEngine.reset()
    t_shared_cold, r_shared_cold = _timed_fig4("shared", 1)
    t_shared_warm, r_shared_warm = _timed_fig4("shared", 1)
    t_shared_fleet, r_shared_fleet = _timed_fig4("shared", 2)

    # Hard constraint: every engine/jobs setting, cold or warm, produces
    # the exact same numbers.
    baseline = _canonical(r_serial)
    for arm in (
        r_inline1,
        r_shared_cold,
        r_shared_warm,
        r_shared_fleet,
    ):
        assert _canonical(arm) == baseline

    # 1-core acceptance: the cold shared jobs=1 path beats the serial
    # no-cache baseline outright...
    assert t_shared_cold < t_serial
    # ...and the persistent cache turns the second run into >= 2x over
    # the inline engine (the cross-run speedup per-run caches can never
    # deliver — they die with every run).
    cross_run_speedup = t_inline1 / t_shared_warm
    assert cross_run_speedup >= 2.0

    # Cross-run cache hit rate > 0: the warm run was served from caches
    # that survived the previous run.
    warm_stats = dict(r_shared_warm.cache_stats or {})
    assert warm_stats.get("measurement_hits", 0) > 0
    assert warm_stats.get("measurement_hit_rate", 0) > 0

    # Cross-worker hit rate > 0: fleet workers (cache-cold processes)
    # were served by the shared store the jobs=1 runs populated.
    fleet_stats = dict(r_shared_fleet.cache_stats or {})
    shared_hits = fleet_stats.get(
        "measurement_shared_hits", 0
    ) + fleet_stats.get("solution_shared_hits", 0)
    assert shared_hits > 0

    SharedEngine.reset()
    t_t4_inline, r_t4_inline = _timed_table4("inline")
    SharedEngine.reset()
    t_t4_cold, r_t4_cold = _timed_table4("shared")
    t_t4_warm, r_t4_warm = _timed_table4("shared")
    SharedEngine.reset()

    t4_baseline = _table4_canonical(r_t4_inline)
    assert _table4_canonical(r_t4_cold) == t4_baseline
    assert _table4_canonical(r_t4_warm) == t4_baseline
    assert t_t4_warm < t_t4_inline  # cross-run cache, cluster workload

    payload = {
        "schema": "bench_shared_engine/v2",
        "description": (
            "Persistent shared-cache engine vs the per-run inline engine "
            "on reduced Fig-4 and Table-4 workloads.  All arms asserted "
            "bit-identical; the gates are cache and cross-run wins a "
            "single core can show."
        ),
        "host_cpus": host_cpus,
        "fig4_reduced": {
            "config": REDUCED,
            "serial_no_cache_seconds": round(t_serial, 3),
            "inline_jobs1_seconds": round(t_inline1, 3),
            "shared_jobs1_cold_seconds": round(t_shared_cold, 3),
            "shared_jobs1_warm_seconds": round(t_shared_warm, 3),
            "shared_jobs2_fleet_seconds": round(t_shared_fleet, 3),
            "shared_cold_vs_serial_speedup": round(t_serial / t_shared_cold, 2),
            "cross_run_speedup_warm_vs_inline": round(cross_run_speedup, 2),
            "warm_run_cache_stats": warm_stats,
            "fleet_run_cache_stats": fleet_stats,
            "bit_identical": True,
        },
        "table4_reduced": {
            "config": TABLE4_REDUCED,
            "inline_jobs1_seconds": round(t_t4_inline, 3),
            "shared_cold_seconds": round(t_t4_cold, 3),
            "shared_warm_seconds": round(t_t4_warm, 3),
            "cross_run_speedup": round(t_t4_inline / t_t4_warm, 2),
            "bit_identical": True,
        },
    }
    atomic_write_json(RESULT_PATH, payload)

    lines = [
        "Shared engine benchmark (reduced Fig-4 + Table-4)",
        f"  fig4 serial (no cache)   {t_serial:6.2f} s",
        f"  fig4 inline  --jobs 1    {t_inline1:6.2f} s",
        f"  fig4 shared  --jobs 1    {t_shared_cold:6.2f} s cold / "
        f"{t_shared_warm:.2f} s warm ({cross_run_speedup:.1f}x vs "
        "inline)",
        f"  fig4 shared  --jobs 2    {t_shared_fleet:6.2f} s (fleet, warm "
        "store)",
        f"  fleet shared-store hits: {shared_hits:.0f}",
        f"  table4 inline {t_t4_inline:.2f} s; shared {t_t4_cold:.2f} s "
        f"cold / {t_t4_warm:.2f} s warm",
        f"  host CPUs: {host_cpus}",
        "  results bit-identical across all arms: yes",
        f"  written to {RESULT_PATH.name}",
    ]
    report("shared_engine", "\n".join(lines))
