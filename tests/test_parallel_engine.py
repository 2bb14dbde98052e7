"""The parallel experiment engine and the determinism guarantee.

The engine's whole contract is that ``--jobs`` changes wall-clock time
and nothing else.  The determinism test here is the PR's hard
acceptance: a reduced Figure-4 run at ``jobs=1`` and ``jobs=4``
serializes to byte-identical JSON.
"""

import json

import pytest

from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig
from repro.parallel.executor import ParallelExecutor, resolve_jobs
from repro.parallel.plan import RunSpec


def double(x):
    return 2 * x


def fail(x):
    raise RuntimeError(f"boom {x}")


class TestRunSpec:
    def test_execute(self):
        assert RunSpec(key="k", fn=double, kwargs={"x": 21}).execute() == 42

    def test_rejects_lambda(self):
        with pytest.raises(ValueError, match="module-level"):
            RunSpec(key="k", fn=lambda: 1)

    def test_rejects_closure(self):
        def local():
            return 1

        with pytest.raises(ValueError, match="module-level"):
            RunSpec(key="k", fn=local)


class TestParallelExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_serial_and_parallel_agree(self):
        specs = [
            RunSpec(key=("d", i), fn=double, kwargs={"x": i}) for i in range(6)
        ]
        serial = ParallelExecutor(jobs=1).run(specs)
        pooled = ParallelExecutor(jobs=3).run(specs)
        assert serial == pooled
        assert list(pooled) == [s.key for s in specs]  # submission order

    def test_duplicate_keys_rejected(self):
        spec = RunSpec(key="same", fn=double, kwargs={"x": 1})
        with pytest.raises(ValueError, match="duplicate"):
            ParallelExecutor(jobs=1).run([spec, spec])

    def test_empty_plan(self):
        assert ParallelExecutor(jobs=4).run([]) == {}

    def test_worker_exception_propagates(self):
        specs = [RunSpec(key="f", fn=fail, kwargs={"x": 1})]
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(jobs=1).run(specs)
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(jobs=2).run(specs)


class TestFig4Determinism:
    """The acceptance criterion: results bit-identical at every --jobs."""

    @pytest.fixture(scope="class")
    def reduced(self):
        return ExperimentConfig(iterations=8, baseline_iterations=4)

    def test_jobs_1_vs_4_byte_identical(self, reduced):
        serial = fig4.run(ExperimentConfig(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            jobs=1,
        ))
        pooled = fig4.run(ExperimentConfig(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            jobs=4,
        ))
        a = json.dumps(serial.canonical_dict(), sort_keys=True)
        b = json.dumps(pooled.canonical_dict(), sort_keys=True)
        assert a == b

    def test_no_cache_matches_cached(self, reduced):
        cached = fig4.run(ExperimentConfig(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            jobs=1,
            memoize=True,
        ))
        uncached = fig4.run(ExperimentConfig(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            jobs=1,
            memoize=False,
        ))
        assert json.dumps(cached.canonical_dict(), sort_keys=True) == json.dumps(
            uncached.canonical_dict(), sort_keys=True
        )
        assert cached.cache_stats is not None
        assert uncached.cache_stats is None

    def test_cache_stats_surfaced(self, reduced):
        result = fig4.run(reduced)
        assert result.cache_stats is not None
        assert result.cache_stats["solution_hits"] > 0
