"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fig4-serial --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each unit (one workload at one sub-seed)
runs in a fresh process (``unit.py``), so every unit pays its own imports
and starts with cold caches.  A run first covers the workload's fixed list
of sub-seeds, derived from ``--seed``, then repeats them until ``--seconds``
have passed; a repeat must reproduce the digest of its sub-seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units of the same sub-seed and prints the per-layer
metrics of the median traced unit, plus the tracing overhead.  The last
stdout line is the result JSON; the full record of the run (every unit's
raw seconds and probe readings, quartiles, drift flags, ``host_cpus``) is
written under ``.perfbench/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probe  # noqa: E402
from workloads import WORKLOADS, sub_seeds  # noqa: E402

#: A unit that runs longer than this is killed and the run fails.
UNIT_TIMEOUT_S = 150
#: Metric names: letters, digits, ``_ . -``, starting with a letter or digit.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "gain_pct": "%",
    "agree_pct": "%",
}


class RunFailed(Exception):
    """The run cannot produce a result (a unit crashed or timed out)."""


def run_unit(workload: str, seed: int, trace_file: Path | None = None) -> dict:
    """Run ``unit.py`` in its own process group and return its record."""
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    # Worker pools and the engine's manager put sockets under TMPDIR.
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{workload} unit at seed {seed} timed out") from None
    finally:
        # Whatever the unit left behind in its group goes with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RunFailed(f"{workload} unit at seed {seed} crashed:\n{stderr[-2000:]}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - started
    return record


def corrected(record: dict, key: str) -> float:
    return probe.corrected(
        record[key], record["probe_before_s"], record["probe_after_s"]
    )


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def run_units(workload: str, seeds: list[int], seconds: float, traced: bool) -> list[dict]:
    """Cover every sub-seed once, then repeat while another unit fits in
    ``seconds``.  A traced run runs an untraced and a traced unit per
    sub-seed, alternating which goes first so position effects cancel."""
    deadline = time.monotonic() + seconds
    units: list[dict] = []
    i = 0
    while True:
        seed = seeds[i % len(seeds)]
        if traced:
            trace_file = OUT / f"spans-{workload}-{seed}-{i}.json"
            order = [None, trace_file] if i % 2 == 0 else [trace_file, None]
            group = [{**run_unit(workload, seed, t), "pair": i} for t in order]
            for u in group:
                if u["traced"]:
                    u["trace_file"] = str(trace_file)
        else:
            group = [run_unit(workload, seed)]
        units.extend(group)
        i += 1
        mean_group_s = sum(u["elapsed_s"] for u in units) / i
        covered = traced or i >= len(seeds)
        if covered and time.monotonic() + mean_group_s > deadline:
            return units


def check_units(workload: str, units: list[dict], seeds: list[int]) -> list[str]:
    """Failed checks over a run's units (empty when all pass).

    For ``fig4-fleet`` this runs one ``fig4-serial`` unit at the first
    sub-seed, appended to ``units`` with ``reference`` set: the fleet must
    reproduce the serial digest bit for bit.
    """
    problems = [
        f"unit at seed {u['seed']}: {u['error'].strip().splitlines()[-1]}"
        for u in units
        if not u["ok"]
    ]
    digests: dict[int, set[str]] = {}
    for u in units:
        if u["ok"]:
            digests.setdefault(u["seed"], set()).add(u["digest"])
    problems += [
        f"seed {seed}: runs disagree ({len(d)} digests)"
        for seed, d in digests.items()
        if len(d) > 1
    ]
    for u in units:
        if not u["ok"] or "per_layer" not in u:
            continue
        pl = u["per_layer"]
        parts = sum(pl[name] for name in layers.ATTRIBUTION)
        if abs(parts - pl["trace.wall_s"]) > 1e-6 * max(pl["trace.wall_s"], 1.0):
            problems.append(
                f"seed {u['seed']}: layer self times sum to {parts}, "
                f"traced wall is {pl['trace.wall_s']}"
            )
    if workload == "fig4-fleet" and seeds[0] in digests:
        serial = {**run_unit("fig4-serial", seeds[0]), "reference": True}
        units.append(serial)
        if not serial["ok"] or {serial["digest"]} != digests[seeds[0]]:
            problems.append("fig4-fleet digest differs from fig4-serial")
    return problems


def timed_units(units: list[dict]) -> list[dict]:
    """The run's own successful units (not the fleet's serial reference)."""
    return [u for u in units if u["ok"] and not u.get("reference")]


def end_to_end(units: list[dict]) -> dict[str, float]:
    """End-to-end metrics of an untraced run (see README.md)."""
    timed = timed_units(units)
    if not timed:
        return {}
    first: dict[int, dict] = {}
    for u in timed:
        first.setdefault(u["seed"], u)
    return {
        "setup_s": statistics.median(corrected(u, "setup_raw_s") for u in timed),
        "wall_s": statistics.median(corrected(u, "wall_raw_s") for u in timed),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in timed),
        "gain_pct": statistics.fmean(u["gain_pct"] for u in first.values()),
        "agree_pct": statistics.fmean(u["agree_pct"] for u in first.values()),
    }


def traced_layers(units: list[dict]) -> tuple[dict[str, float], dict | None]:
    """Per-layer metrics of the median traced unit, and that unit."""
    pairs: dict[int, dict[bool, dict]] = {}
    for u in units:
        if u["ok"] and "pair" in u:
            pairs.setdefault(u["pair"], {})[u["traced"]] = u
    pairs = {i: p for i, p in pairs.items() if len(p) == 2}
    if not pairs:
        return {}, None
    overheads = [
        100.0 * (corrected(p[True], "wall_raw_s") / corrected(p[False], "wall_raw_s") - 1.0)
        for p in pairs.values()
    ]
    ranked = sorted((p[True] for p in pairs.values()), key=lambda u: corrected(u, "wall_raw_s"))
    median_unit = ranked[(len(ranked) - 1) // 2]
    metrics = dict(median_unit["per_layer"])
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    return metrics, median_unit


def merge_traces(units: list[dict], path: Path) -> None:
    """Gather every traced unit's spans into one file; drop the parts."""
    merged = []
    for u in units:
        part = u.pop("trace_file", None)
        if part is None:
            continue
        with open(part) as fh:
            data = json.load(fh)
        os.remove(part)
        merged.append({"seed": u["seed"], "ok": u["ok"], **data})
    with open(path, "w") as fh:
        json.dump({"units": merged}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = layers.PER_LAYER if args.trace else END_TO_END_UNITS
    declared = {
        m["name"]: m["unit"]
        for m in bench["per_layer" if args.trace else "end_to_end"]
    }
    if declared != reported or not all(map(NAME_RE.match, reported)):
        print("error: metric names disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    wall_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")

    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    cls, count = WORKLOADS[args.workload]
    seeds = sub_seeds(args.seed, cls.seed_label, count)
    try:
        units = run_units(args.workload, seeds, args.seconds, bool(args.trace))
        problems = check_units(args.workload, units, seeds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for u in units:
        u["drift"] = probe.drift(u["probe_before_s"], u["probe_after_s"])
        u["drifted"] = u["drift"] > wall_bound
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": seeds,
        "seconds": args.seconds,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "nominal_probe_s": probe.NOMINAL_PROBE_S,
        "drift_bound": wall_bound,
        "drifted_units": sum(u["drifted"] for u in units),
        "problems": problems,
    }
    if args.trace:
        metrics, median_unit = traced_layers(units)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        merge_traces(units, trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["median_traced_seed"] = median_unit and median_unit["seed"]
    else:
        metrics = end_to_end(units)
        timed = timed_units(units)
        record["spread"] = timed and {
            "setup_s": quartiles([corrected(u, "setup_raw_s") for u in timed]),
            "wall_s": quartiles([corrected(u, "wall_raw_s") for u in timed]),
            **{
                key: quartiles([u[key] for u in timed])
                for key in (
                    "setup_raw_s", "wall_raw_s", "probe_before_s", "probe_after_s",
                    "peak_rss_mb", "gain_pct", "agree_pct",
                )
            },
        }
    for u in units:
        u.pop("per_layer", None)
    record["units"] = units
    record["metrics"] = metrics
    with open(OUT / f"run-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {reported[name]}")
    result = {
        "correct": not problems,
        "attempted": max(sum(u["attempted"] for u in units), 1),
        "failed": sum(u["failed"] for u in units),
        "metrics": {
            name: {"value": value, "unit": reported[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
