#!/usr/bin/env python
"""Which knobs matter?  (the paper's §III.A diagnostic use of Harmony)

Two complementary views of the same question:

1. **Ground truth** — one-at-a-time sweeps of a few interesting parameters
   on the analytic backend, reporting each knob's effect size.
2. **What a tuning run reveals** — run Active Harmony for a while and mine
   the recorded history for parameter importance, the way an administrator
   who only has the live system would.

Run:  python examples/sensitivity_analysis.py
"""

from repro import (
    AnalyticBackend,
    BROWSING_MIX,
    ClusterSpec,
    ClusterTuningSession,
    Scenario,
    make_scheme,
)
from repro.analysis.importance import history_importance, importance_table
from repro.analysis.sensitivity import sensitivity_report

INTERESTING = (
    "proxy0.cache_mem",
    "proxy0.maximum_object_size_in_memory",
    "proxy0.cache_swap_low",
    "proxy0.cache_swap_high",
    "app0.maxProcessors",
    "db0.table_cache",
    "db0.join_buffer_size",
)


def main() -> None:
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=BROWSING_MIX, population=750)
    backend = AnalyticBackend()

    print("sweeping parameters one at a time (ground truth) ...")
    report = sensitivity_report(
        backend, scenario, names=INTERESTING, points=5, repeats=3, seed=2
    )
    print(report.to_table())
    swap = report.curve("proxy0.cache_swap_low").effect_size
    cache = report.curve("proxy0.cache_mem").effect_size
    print(
        f"\n-> cache_mem moves WIPS by {cache:.0%}; the eviction watermark "
        f"moves it by {swap:.1%} — the paper's finding that the watermarks "
        "'do not impact the overall system performance'.\n"
    )

    print("running 80 tuning iterations and mining the history ...")
    session = ClusterTuningSession(
        backend, scenario, scheme=make_scheme(scenario, "default"), seed=9
    )
    session.run(80)
    importances = history_importance(session.history, cluster.full_space())
    print(importance_table(importances, top=10))


if __name__ == "__main__":
    main()
