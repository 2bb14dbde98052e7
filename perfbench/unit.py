"""One benchmark unit: one workload at one seed, in a fresh process.

Usage (``run.py`` starts these; run by hand to inspect one unit)::

    python3 perfbench/unit.py --workload fig4-serial --seed 7 [--trace FILE]

Phases: imports and ``setup()`` (``setup_s``), a probe reading, the timed
phase (``wall_s``), ``teardown()`` (stops worker processes), a second probe
reading, then the output checks.  The last stdout line is one JSON record.
With ``--trace FILE`` the layer calls are wrapped before the timed phase and
the spans are written to FILE when the unit ends.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of the largest process so far: this one or a waited child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def run_unit(name: str, seed: int, trace_path: str | None) -> dict:
    """Run one unit and return its record (see module docstring)."""
    cls, _ = WORKLOADS[name]
    workload = cls(seed, profile=trace_path is not None)
    workload.setup()
    setup_end = time.perf_counter()
    tracer = None
    undo = []
    if trace_path is not None:
        tracer = Tracer()
        undo = layers.install(tracer)
    before = probe.read_probe(processes=workload.jobs)
    record: dict = {"workload": name, "seed": seed, "traced": tracer is not None}
    error = None
    start = time.perf_counter()
    try:
        workload.timed()
    except Exception:  # a failed measurement fails the unit, reported below
        error = traceback.format_exc()
    end = time.perf_counter()
    for restore in undo:
        restore()
    program = workload.teardown()
    after = probe.read_probe(processes=workload.jobs)
    record.update(
        setup_raw_s=setup_end - _PROCESS_START,
        wall_raw_s=end - start,
        probe_before_s=before,
        probe_after_s=after,
    )
    if error is None:
        try:
            out = workload.outcome()
        except CheckFailed as exc:
            error = f"check failed: {exc}"
    failed_spans = layers.failed_measurements(tracer.spans) if tracer else 0
    if error is not None:
        record.update(ok=False, error=error, attempted=1, failed=max(failed_spans, 1))
    else:
        program.update(out.pop("program"))
        record.update(ok=True, failed=failed_spans, **out)
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        window = (start, end)
        record["per_layer"] = layers.per_layer(tracer, window, program)
        with open(trace_path, "w") as fh:
            json.dump(
                {"window": window, **layers.dump_spans(tracer.spans)}, fh
            )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    print(json.dumps(run_unit(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
