"""Which program calls the traced run wraps, and the per-layer metrics.

Every wrapped call maps to exactly one ``*_s`` self-time metric, so the
self-time metrics plus ``trace.unattributed_s`` add up to ``trace.wall_s``.
Counters come from the wrapped calls' inputs and results and from the
program's own statistics objects (cache, speculation and engine counters).
"""

from __future__ import annotations

import statistics
from typing import Mapping, Optional

from tracer import Span, Tracer, patch, self_time_by_name


def _count_rows(tracer: Tracer, index: int, args: tuple, result: object) -> None:
    tracer.counters["mva.calls"] += 1
    tracer.counters["mva.rows"] += len(args[0])


def _count_solves(tracer: Tracer, index: int, args: tuple, result: object) -> None:
    tracer.counters["model.solve.count"] += len(args[1])


def _count_specs(tracer: Tracer, index: int, args: tuple, result: object) -> None:
    executor, specs = args[0], args[1]
    tracer.counters["parallel.specs"] += len(specs)
    stats = executor.cache_stats or {}
    tracer.counters["parallel.shared_hits"] += stats.get(
        "measurement_shared_hits", 0.0
    ) + stats.get("solution_shared_hits", 0.0)


def _des_phases(tracer: Tracer, index: int, args: tuple, result: object) -> None:
    """Carve the simulator's own build and warm-up timings out of its span."""
    diag = result.diagnostics
    span = tracer.spans[index]
    build = diag.get("profile.build_seconds", 0.0)
    warmup = diag.get("profile.warmup_seconds", 0.0)
    tracer.add_child(index, "des.build", span.start, span.start + build)
    tracer.add_child(
        index, "des.warmup", span.start + build, span.start + build + warmup
    )
    for key, counter in (
        ("profile.entries_dispatched", "des.events"),
        ("profile.rng_scalar_draws", "des.rng.scalar_draws"),
        ("profile.rng_block_draws", "des.rng.block_draws"),
    ):
        tracer.counters[counter] += diag.get(key, 0.0)
    tracer.counters["des.events_per_s"] = diag.get("profile.events_per_second", 0.0)


#: (target, span name, after-hook).  Targets are ``module:attribute``.
TARGETS = (
    ("repro.tuning.session:ClusterTuningSession.step", "tuning.step", None),
    ("repro.tuning.iteration:IterationRunner.run", "tuning.iteration", None),
    ("repro.harmony.server:HarmonyServer.fetch", "harmony.fetch", None),
    ("repro.harmony.server:HarmonyServer.report", "harmony.report", None),
    ("repro.harmony.scaling:TuningScheme.combine", "harmony.combine", None),
    ("repro.harmony.speculate:SpeculativeEvaluator.prefetch", "speculate.prefetch", None),
    ("repro.model.base:MemoizedBackend.measure", "cache.lookup", None),
    ("repro.model.base:MemoizedBackend.measure_batch", "cache.lookup", None),
    ("repro.model.analytic:AnalyticBackend.measure", "model.measure", None),
    ("repro.model.analytic:AnalyticBackend.measure_batch", "model.measure", None),
    ("repro.model.analytic:AnalyticBackend.prefetch_configs", "model.measure", None),
    ("repro.model.analytic:AnalyticBackend.solve_tasks_multi", "model.solve", _count_solves),
    ("repro.model.analytic:solve_mva_batch", "mva.solve", _count_rows),
    ("repro.model.analytic:aggregation_plan", "hierarchy.plan", None),
    ("repro.model.demands:DemandBuilder.build", "demands.build", None),
    ("repro.des.backend:SimulationBackend.measure", "des.measure", _des_phases),
    ("repro.parallel.executor:ParallelExecutor.run", "parallel.run", _count_specs),
    ("repro.experiments.fig4:remeasure", "experiments.remeasure", None),
    ("repro.experiments.runner:remeasure", "experiments.remeasure", None),
)

#: Span name -> the self-time metric it is charged to.
SELF_TIME_METRIC = {
    "tuning.step": "tuning.self_s",
    "tuning.iteration": "tuning.self_s",
    "harmony.fetch": "harmony.fetch_s",
    "harmony.report": "harmony.report_s",
    "harmony.combine": "harmony.combine_s",
    "speculate.prefetch": "speculate.prefetch_s",
    "cache.lookup": "cache.lookup_s",
    "model.measure": "model.measure_s",
    "model.solve": "model.solve_s",
    "mva.solve": "mva.solve_s",
    "hierarchy.plan": "hierarchy.plan_s",
    "demands.build": "demands.build_s",
    "des.measure": "des.measure_s",
    "des.build": "des.build_s",
    "des.warmup": "des.warmup_s",
    "parallel.run": "parallel.run_s",
    "experiments.remeasure": "experiments.remeasure_s",
}

#: The metrics that add up to ``trace.wall_s``.
ATTRIBUTION = sorted(set(SELF_TIME_METRIC.values())) + ["trace.unattributed_s"]

#: Spans whose failure is a failed measurement.
MEASURE_SPANS = ("cache.lookup", "model.measure", "des.measure")

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "tuning.steps": "count",
    "tuning.step_ms.p50": "ms",
    "tuning.step_ms.p90": "ms",
    "tuning.self_s": "s",
    "harmony.fetch_s": "s",
    "harmony.report_s": "s",
    "harmony.combine_s": "s",
    "speculate.prefetch_s": "s",
    "speculate.solves": "count",
    "speculate.hit_ratio": "ratio",
    "speculate.waste_ratio": "ratio",
    "cache.lookup_s": "s",
    "cache.measure.hits": "count",
    "cache.measure.misses": "count",
    "cache.measure.hit_ratio": "ratio",
    "cache.solution.hits": "count",
    "cache.solution.misses": "count",
    "cache.solution.hit_ratio": "ratio",
    "model.measure_s": "s",
    "model.solve.count": "count",
    "model.solve_s": "s",
    "mva.calls": "count",
    "mva.rows_per_call": "count",
    "mva.solve_s": "s",
    "hierarchy.plan_s": "s",
    "demands.build_s": "s",
    "des.measure_s": "s",
    "des.build_s": "s",
    "des.warmup_s": "s",
    "des.events": "count",
    "des.events_per_s": "1/s",
    "des.rng.scalar_draws": "count",
    "des.rng.block_draws": "count",
    "parallel.run_s": "s",
    "parallel.specs": "count",
    "parallel.shared_hits": "count",
    "parallel.store.misses": "count",
    "parallel.store.entries": "count",
    "experiments.remeasure_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the undo callbacks."""
    return [patch(tracer, target, name, after) for target, name, after in TARGETS]


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(
    tracer: Tracer,
    window: tuple[float, float],
    program: Mapping[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced unit (``trace.overhead_pct`` aside).

    ``program`` holds the counters read from the program's own statistics
    objects after the run, keyed by per-layer metric name.
    """
    by_name, unattributed = self_time_by_name(tracer.spans, window)
    out = {name: 0.0 for name in PER_LAYER}
    for span_name, seconds in by_name.items():
        out[SELF_TIME_METRIC[span_name]] += seconds
    steps_ms = [
        (s.end - s.start) * 1e3 for s in tracer.spans if s.name == "tuning.step"
    ]
    out["tuning.steps"] = float(len(steps_ms))
    out["tuning.step_ms.p50"] = _percentile(steps_ms, 50)
    out["tuning.step_ms.p90"] = _percentile(steps_ms, 90)
    counters = tracer.counters
    out.update({k: v for k, v in counters.items() if k in out})
    calls = counters.get("mva.calls", 0.0)
    out["mva.rows_per_call"] = counters.get("mva.rows", 0.0) / calls if calls else 0.0
    out.update(program)
    for prefix in ("cache.measure", "cache.solution"):
        out[f"{prefix}.hit_ratio"] = _ratio(
            out[f"{prefix}.hits"], out[f"{prefix}.misses"]
        )
    out["trace.wall_s"] = window[1] - window[0]
    out["trace.unattributed_s"] = unattributed
    return out


def failed_measurements(spans: list[Span]) -> int:
    """Calls into a measuring layer that raised (outermost only)."""
    return sum(
        1
        for s in spans
        if s.failed
        and s.name in MEASURE_SPANS
        and (s.parent < 0 or spans[s.parent].name not in MEASURE_SPANS)
    )


def dump_spans(spans: list[Span]) -> dict:
    """Spans in a compact JSON form: a name table plus rows."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_s", "end_s", "parent", "failed"],
        "rows": [
            [index[s.name], round(s.start, 9), round(s.end, 9), s.parent, int(s.failed)]
            for s in spans
        ],
    }


def load_spans(data: Mapping) -> list[Span]:
    """Inverse of :func:`dump_spans`."""
    names = data["names"]
    return [
        Span(names[n], start, end, parent, bool(failed))
        for n, start, end, parent, failed in data["rows"]
    ]

