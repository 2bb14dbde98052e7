"""Tests for the benchmark's own helpers and a tiny-budget run of each workload.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import probe
import run
import workloads
from tracer import Span, Tracer, attribute, patch, self_time_by_name

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span self time ---------------------------------------------------------
def test_self_time_with_nested_and_sibling_children():
    spans = [
        Span("root", 1.0, 9.0, -1),
        Span("a", 2.0, 4.0, 0),  # sibling children of root
        Span("b", 5.0, 8.0, 0),
        Span("c", 6.0, 7.0, 2),  # grandchild inside b
    ]
    self_s, unattributed = attribute(spans, (0.0, 10.0))
    assert self_s == pytest.approx([8.0 - 2.0 - 3.0, 2.0, 3.0 - 1.0, 1.0])
    assert unattributed == pytest.approx(10.0 - 8.0)
    assert sum(self_s) + unattributed == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_window():
    spans = [
        Span("root", 0.0, 4.0, -1),
        Span("x", 1.0, 3.0, 0),
        Span("x", 2.0, 3.5, 0),  # overlaps its sibling (another thread)
        Span("late", 3.0, 6.0, -1),  # runs past the window's end
    ]
    by_name, unattributed = self_time_by_name(spans, (0.0, 5.0))
    assert by_name["root"] == pytest.approx(4.0 - 2.5)
    assert by_name["x"] == pytest.approx(3.5)
    assert unattributed == pytest.approx(0.0)


def test_tracer_records_parents_failures_and_undo():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner()

        def inner(self):
            return 7

        def broken(self):
            raise RuntimeError("boom")

    Holder.Layer = Layer
    undo = [
        patch(tracer, f"{__name__}:Holder.Layer.{m}", m)
        for m in ("outer", "inner", "broken")
    ]
    layer = Layer()
    assert layer.outer() == 7
    with pytest.raises(RuntimeError):
        layer.broken()
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("outer", -1, False), ("inner", 0, False), ("broken", -1, True)]
    assert layers.failed_measurements(tracer.spans) == 0  # not a measuring layer
    for restore in undo:
        restore()
    layer.outer()
    assert len(tracer.spans) == 3


class Holder:
    """Namespace the tracer test patches through ``module:attr`` paths."""


def test_span_dump_round_trips():
    spans = [Span("a", 0.5, 2.0, -1), Span("b", 1.0, 1.5, 0, failed=True)]
    assert layers.load_spans(json.loads(json.dumps(layers.dump_spans(spans)))) == spans


def test_per_layer_sums_to_traced_wall():
    tracer = Tracer()
    tracer.spans = [
        Span("tuning.step", 1.0, 5.0, -1),
        Span("model.measure", 2.0, 4.0, 0),
        Span("mva.solve", 2.5, 3.5, 1),
    ]
    metrics = layers.per_layer(tracer, (0.0, 6.0), {"cache.measure.hits": 3.0})
    parts = sum(metrics[name] for name in layers.ATTRIBUTION)
    assert parts == pytest.approx(metrics["trace.wall_s"]) == pytest.approx(6.0)
    assert metrics["tuning.self_s"] == pytest.approx(2.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)
    assert metrics["cache.measure.hit_ratio"] == 1.0
    assert metrics["tuning.steps"] == 1.0


# -- probe correction -------------------------------------------------------
def test_probe_correction_scales_to_nominal_speed():
    nominal = probe.NOMINAL_PROBE_S
    # A host twice as slow as nominal halves the corrected time.
    assert probe.corrected(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    assert probe.corrected(4.0, nominal, 3 * nominal) == pytest.approx(2.0)
    assert probe.drift(1.0, 1.2) == pytest.approx(0.2 / 1.1)
    with pytest.raises(ValueError):
        probe.correction(0.0, 1.0)


def test_probe_reading_is_positive():
    assert probe.read_probe(repeats=1) > 0


# -- BENCHMARK.json and metric names ---------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_reported_metrics():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == layers.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])


def test_self_time_metrics_cover_every_traced_call():
    assert {name for _, name, _ in layers.TARGETS} | {"des.build", "des.warmup"} == set(
        layers.SELF_TIME_METRIC
    )
    assert set(layers.ATTRIBUTION) <= set(layers.PER_LAYER)
    assert "des.events_per_s" not in layers.ATTRIBUTION


def test_fig4_workloads_share_their_sub_seeds():
    serial, fleet = workloads.WORKLOADS["fig4-serial"], workloads.WORKLOADS["fig4-fleet"]
    assert serial[0].seed_label == fleet[0].seed_label and serial[1] == fleet[1]


def test_sub_seeds_are_a_pure_function_of_the_seed():
    seeds = workloads.sub_seeds(3, "wide-spec", 4)
    assert seeds == workloads.sub_seeds(3, "wide-spec", 4)
    assert seeds != workloads.sub_seeds(4, "wide-spec", 4)
    assert len(set(seeds)) == 4 and all(0 <= s < 2**31 for s in seeds)


def _unit(seed, digest, **extra):
    return {
        "seed": seed, "ok": True, "digest": digest, "wall_raw_s": 2.0,
        "setup_raw_s": 0.5, "probe_before_s": probe.NOMINAL_PROBE_S,
        "probe_after_s": probe.NOMINAL_PROBE_S, "peak_rss_mb": 50.0,
        "gain_pct": 10.0, "agree_pct": 99.0, **extra,
    }


def test_checks_catch_disagreeing_repeats_and_broken_attribution():
    units = [_unit(1, "a"), _unit(2, "b"), _unit(1, "a")]
    assert run.check_units("fig4-serial", units, [1, 2]) == []
    units.append(_unit(2, "c"))
    assert run.check_units("fig4-serial", units, [1, 2]) == [
        "seed 2: runs disagree (2 digests)"
    ]
    broken = {name: 0.0 for name in layers.PER_LAYER}
    broken.update({"trace.wall_s": 2.0, "mva.solve_s": 1.0})
    problems = run.check_units("fig4-serial", [_unit(1, "a", per_layer=broken)], [1])
    assert problems and "sum to 1.0" in problems[0]


def test_end_to_end_aggregates_per_sub_seed():
    units = [
        _unit(1, "a", wall_raw_s=2.0, gain_pct=10.0),
        _unit(2, "b", wall_raw_s=4.0, gain_pct=20.0),
        _unit(1, "a", wall_raw_s=3.0, gain_pct=10.0),
    ]
    metrics = run.end_to_end(units)
    assert metrics["wall_s"] == pytest.approx(3.0)
    assert metrics["gain_pct"] == pytest.approx(15.0)
    assert metrics["setup_s"] == pytest.approx(0.5)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- tiny-budget workloads --------------------------------------------------
@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "FIG4_ITERATIONS", 3)
    monkeypatch.setattr(workloads, "WIDE_ITERATIONS", 3)
    monkeypatch.setattr(workloads, "WIDE_SESSIONS", 2)
    monkeypatch.setattr(workloads, "REMEASURE_ITERATIONS", 2)
    monkeypatch.setattr(workloads, "DES_POPULATION", 400)
    monkeypatch.setattr(workloads, "DES_TIME_SCALE", 0.02)


def _outcome(name, seed, traced=False):
    cls, _ = workloads.WORKLOADS[name]
    workload = cls(seed, profile=traced)
    workload.setup()
    undo = layers.install(Tracer()) if traced else []
    try:
        workload.timed()
    finally:
        for restore in undo:
            restore()
        workload.teardown()
    return workload.outcome()


@pytest.mark.parametrize("name", ["fig4-serial", "wide-spec", "des-validate"])
def test_tiny_workload_digest_is_stable_and_trace_neutral(tiny, name):
    first = _outcome(name, 11)
    assert first["attempted"] > 0 and first["agree_pct"] > 0
    assert _outcome(name, 11)["digest"] == first["digest"]
    assert _outcome(name, 11, traced=True)["digest"] == first["digest"]
    assert _outcome(name, 12)["digest"] != first["digest"]


def test_tiny_fleet_reproduces_serial_digest(tiny):
    assert _outcome("fig4-fleet", 5)["digest"] == _outcome("fig4-serial", 5)["digest"]


def test_illegal_tuned_configuration_fails_the_check():
    from repro.cluster.topology import ClusterSpec

    cluster = ClusterSpec.three_tier(1, 1, 1)
    config = dict(cluster.default_configuration())
    name = sorted(config)[0]
    config[name] = -1
    with pytest.raises(workloads.CheckFailed):
        workloads._validate(cluster, config)


def test_des_outside_band_fails_the_check(tiny):
    cls, _ = workloads.WORKLOADS["des-validate"]
    workload = cls(3, profile=False)
    workload.des_wips, workload.exact_wips = 120.0, 100.0
    workload.exact = type("Stub", (), {"solution_cache_stats": None})()
    with pytest.raises(workloads.CheckFailed):
        workload.outcome()
