"""The scale axis end to end: fluid + hierarchical MVA on wide clusters.

Three arms, written to ``BENCH_scale.json``:

* **Cost scaling** — the exact MVA recursion is O(N x K); timed at
  N=10^3 and 10^4 and extrapolated linearly to 10^5, it must be >= 100x
  slower than the fluid solver's *measured* cost there.  The fluid
  solver is also timed at N=10^3..10^9 to demonstrate per-solve cost
  independent of the population.
* **Accuracy** — on a small wide topology (every approximation engages,
  the exact per-node solve is still feasible) the hierarchical backend
  must match the exact one to float precision, the fluid backend must
  sit within its stated band, and the discrete-event simulator must
  agree with the fluid analytic number within the repo's usual 15%.
* **End to end** — the reduced scale experiment tunes a 208-node
  cluster at N=10^6 under both engines; trajectories are asserted
  bit-identical across ``inline --jobs 1`` and ``shared --jobs 2``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.cluster.topology import ClusterSpec
from repro.des.backend import SimulationBackend
from repro.experiments import scale
from repro.experiments.runner import ExperimentConfig
from repro.model.analytic import AnalyticBackend
from repro.model.base import Scenario
from repro.model.fluid import solve_mva_fluid
from repro.model.mva import Station, solve_mva_exact
from repro.model.noise import NoiseModel
from repro.parallel.engine import SharedEngine
from repro.tpcw.interactions import STANDARD_MIXES
from repro.util.serialization import atomic_write_json

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_scale.json"

#: Representative station demands (seconds/interaction) for the solver
#: cost arm — nine single-server stations, the shape of a mid-size tier.
DEMANDS = (0.010, 0.012, 0.008, 0.004, 0.006, 0.002, 0.009, 0.003, 0.005)

#: Reduced protocol for the end-to-end arm (full protocol: 200).
SCALE_REDUCED = dict(iterations=10, baseline_iterations=4)


def _stations():
    return [Station(f"s{i}", d) for i, d in enumerate(DEMANDS)]


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _canonical(result) -> str:
    """ScaleResult in a JSON-stable form for bit-identity assertions."""
    return json.dumps(
        {
            "baseline": [result.baseline_wips, result.baseline_stddev],
            "tuned": [result.tuned_wips, result.tuned_stddev],
            "improvement": result.improvement,
            "agreement": {
                mode: [row.wips, row.relative_error]
                for mode, row in sorted(result.agreement.items())
            },
            "des": [result.des_wips, result.des_over_exact_ratio],
            "trajectory": list(result.history.performances()),
        },
        sort_keys=True,
    )


def _timed_scale(engine: str, jobs: int):
    cfg = ExperimentConfig(**SCALE_REDUCED, engine=engine, jobs=jobs)
    start = time.perf_counter()
    result = scale.run(cfg)
    return time.perf_counter() - start, result


def test_scale_axis(report):
    host_cpus = os.cpu_count() or 1
    stations = _stations()

    # --- arm A: solver cost scaling --------------------------------------
    t_exact = {
        n: _best_of(lambda n=n: solve_mva_exact(stations, n, 1.0), repeats=3)
        for n in (1_000, 10_000)
    }
    # Exact MVA is linear in N: extrapolate the 10^4 timing to 10^5.
    t_exact_1e5_extrapolated = t_exact[10_000] * 10.0
    t_fluid = {
        n: _best_of(lambda n=n: solve_mva_fluid(stations, n, 1.0))
        for n in (1_000, 100_000, 1_000_000, 10**9)
    }
    exact_vs_fluid = t_exact_1e5_extrapolated / t_fluid[100_000]
    assert exact_vs_fluid >= 100.0
    # Population independence: the fluid solve at N=10^9 costs no more
    # than a small multiple of the N=10^3 solve (both are a handful of
    # Newton steps; 5x absorbs timer noise on loaded CI hosts).
    assert t_fluid[10**9] <= t_fluid[1_000] * 5.0 + 1e-4

    # --- arm B: accuracy on a small wide topology ------------------------
    cluster = ClusterSpec.wide(2, 2, 1, name="wide-audit")
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES["shopping"], population=600
    )
    config = cluster.default_configuration()
    noise_free = {"noise": NoiseModel(0.0, 0.0, 0.0)}
    wips = {
        mode: AnalyticBackend(approximation=mode, **noise_free)
        .measure(scenario, config, seed=0)
        .wips
        for mode in ("exact", "fluid", "hierarchical", "fluid+hierarchical")
    }
    hier_err = abs(wips["hierarchical"] - wips["exact"]) / wips["exact"]
    fluid_err = abs(wips["fluid"] - wips["exact"]) / wips["exact"]
    both_err = abs(wips["fluid+hierarchical"] - wips["exact"]) / wips["exact"]
    assert hier_err < 1e-9  # aggregation of identical replicas is exact
    assert fluid_err < 0.10  # fluid band at moderate N
    assert both_err < 0.10

    des = SimulationBackend(time_scale=0.1)
    des_wips = des.measure(scenario, config, seed=0).wips
    des_ratio = des_wips / wips["fluid"]
    assert 0.85 <= des_ratio <= 1.15

    # --- arm C: end-to-end wide-cluster tuning, both engines -------------
    t_inline, r_inline = _timed_scale("inline", 1)
    SharedEngine.reset()
    t_shared, r_shared = _timed_scale("shared", 2)
    SharedEngine.reset()

    assert _canonical(r_shared) == _canonical(r_inline)
    assert r_inline.num_nodes >= 100
    assert r_inline.population == 1_000_000
    assert r_inline.fluid == 1.0
    assert r_inline.aggregated_nodes == r_inline.num_nodes - 3
    # Raised DES validation arm: wide(4, 4, 2) at the agreement
    # population, cross-checked against the exact analytic row.
    assert 0.9 <= r_inline.des_over_exact_ratio <= 1.1

    payload = {
        "schema": "bench_scale/v1",
        "description": (
            "Scale axis: exact-vs-fluid solver cost, approximation "
            "accuracy bands on a small wide topology (incl. DES "
            "cross-check), and the reduced scale experiment tuning a "
            "208-node cluster at N=10^6, bit-identical across engines."
        ),
        "host_cpus": host_cpus,
        "cost_scaling": {
            "stations": len(DEMANDS),
            "exact_seconds": {str(n): round(t, 6) for n, t in t_exact.items()},
            "exact_1e5_extrapolated_seconds": round(
                t_exact_1e5_extrapolated, 6
            ),
            "fluid_seconds": {str(n): round(t, 6) for n, t in t_fluid.items()},
            "exact_vs_fluid_speedup_1e5": round(exact_vs_fluid, 1),
            "speedup_gate": 100.0,
        },
        "accuracy": {
            "cluster": "wide(2, 2, 1)",
            "population": 600,
            "wips": {mode: round(v, 4) for mode, v in sorted(wips.items())},
            "hierarchical_rel_error": hier_err,
            "fluid_rel_error": round(fluid_err, 6),
            "fluid_band": 0.10,
            "des_wips": round(des_wips, 4),
            "des_over_fluid_ratio": round(des_ratio, 4),
            "des_band": [0.85, 1.15],
        },
        "end_to_end": {
            "config": SCALE_REDUCED,
            "cluster_nodes": r_inline.num_nodes,
            "population": r_inline.population,
            "aggregated_nodes": r_inline.aggregated_nodes,
            "baseline_wips": round(r_inline.baseline_wips, 4),
            "tuned_wips": round(r_inline.tuned_wips, 4),
            "improvement": round(r_inline.improvement, 6),
            "des_cluster": "wide(4, 4, 2)",
            "des_population": r_inline.des_population,
            "des_wips": round(r_inline.des_wips, 4),
            "des_over_exact_ratio": round(r_inline.des_over_exact_ratio, 4),
            "des_band": [0.9, 1.1],
            "inline_jobs1_seconds": round(t_inline, 3),
            "shared_jobs2_seconds": round(t_shared, 3),
            "bit_identical": True,
        },
    }
    atomic_write_json(RESULT_PATH, payload)

    lines = [
        "Scale benchmark (fluid + hierarchical MVA)",
        f"  exact MVA      N=1e4 {t_exact[10_000] * 1e3:8.2f} ms "
        f"(-> {t_exact_1e5_extrapolated * 1e3:.1f} ms at N=1e5, "
        "extrapolated)",
        f"  fluid solver   N=1e5 {t_fluid[100_000] * 1e6:8.1f} us, "
        f"N=1e9 {t_fluid[10**9] * 1e6:.1f} us  "
        f"({exact_vs_fluid:.0f}x faster than exact at N=1e5)",
        f"  accuracy: hier {hier_err:.1e}, fluid {fluid_err:.1e} rel "
        f"error vs exact; DES/fluid ratio {des_ratio:.3f}",
        f"  end to end: {r_inline.num_nodes} nodes at N=1e6 tuned in "
        f"{t_inline:.2f} s inline / {t_shared:.2f} s shared x2",
        f"  baseline {r_inline.baseline_wips:.1f} -> tuned "
        f"{r_inline.tuned_wips:.1f} WIPS "
        f"({r_inline.improvement * 100:+.1f}%)",
        "  trajectories bit-identical across engines: yes",
        f"  written to {RESULT_PATH.name}",
    ]
    report("scale", "\n".join(lines))
