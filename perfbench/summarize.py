"""Summarize the run records under ``.perfbench/`` across runs.

    python3 perfbench/summarize.py [WORKLOAD ...]

For each workload with untraced run records, prints the number of runs and,
for every end-to-end metric, the raw wall seconds and both probe readings,
the median and quartiles over runs and the quartile spread as a share of
the median (the figure each end-to-end bound is set against).  Also prints
``host_cpus`` and the share of units flagged as drifted.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench"


def summarize(workload: str) -> dict:
    """Median, quartiles and spread over every untraced run of ``workload``."""
    records = [
        json.loads(path.read_text())
        for path in sorted(OUT.glob(f"run-{workload}-seed*-trace0.json"))
    ]
    records = [r for r in records if r["metrics"]]
    series: dict[str, list[float]] = {name: [] for name in records[0]["metrics"]}
    for key in ("wall_raw_s", "probe_before_s", "probe_after_s"):
        series[key] = []
    for r in records:
        for name, value in r["metrics"].items():
            series[name].append(value)
        for key in ("wall_raw_s", "probe_before_s", "probe_after_s"):
            series[key].append(r["spread"][key]["median"])
    units = [u for r in records for u in r["units"]]
    out = {
        "runs": len(records),
        "host_cpus": sorted({r["host_cpus"] for r in records}),
        "drifted_share": sum(u["drifted"] for u in units) / len(units),
        "metrics": {},
    }
    for name, values in series.items():
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
        }
    return out


def main(argv: list[str]) -> int:
    names = argv or sorted(
        {p.name.split("-seed")[0][len("run-"):] for p in OUT.glob("run-*-trace0.json")}
    )
    for workload in names:
        summary = summarize(workload)
        print(
            f"{workload}: {summary['runs']} runs, host_cpus {summary['host_cpus']}, "
            f"{summary['drifted_share']:.0%} of units drifted"
        )
        for name, m in summary["metrics"].items():
            print(
                f"  {name:<16} median {m['median']:>12.6g}  "
                f"q1 {m['q1']:>12.6g}  q3 {m['q3']:>12.6g}  spread {m['spread']:.4f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
