"""Cross-cutting integration tests: public API surface, heterogeneous
hardware, backend physics sanity, end-to-end persistence."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster.node import NodeSpec, Role
from repro.cluster.topology import ClusterSpec, NodePlacement
from repro.model.analytic import AnalyticBackend
from repro.model.base import Scenario
from repro.model.noise import NoiseModel
from repro.tpcw.interactions import BROWSING_MIX, ORDERING_MIX
from repro.util.units import GB

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that sees only ``src/``."""
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        for mod in (
            "repro.harmony", "repro.tpcw", "repro.cluster", "repro.model",
            "repro.des", "repro.tuning", "repro.analysis", "repro.sim",
            "repro.experiments", "repro.util", "repro.cli",
        ):
            importlib.import_module(mod)

    def test_sim_process_imports_first(self):
        done = run_fresh("import repro.sim.process")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize(
        "module, absent",
        [
            (
                "repro.des.backend",
                ("repro.lint.core", "repro.lint.rules", "tomllib",
                 "repro.harmony.net", "repro.tuning.session", "repro.util.plot"),
            ),
            (
                "repro.experiments.fig4",
                ("repro.lint.core", "repro.lint.rules", "tomllib",
                 "repro.harmony.net", "repro.tuning.reconfig",
                 "repro.model.mva_multiclass"),
            ),
        ],
    )
    def test_import_loads_only_what_it_names(self, module, absent):
        done = run_fresh(
            f"import sys, {module}\n"
            f"print(sorted(set({absent!r}) & set(sys.modules)))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestHeterogeneousHardware:
    def test_faster_cpu_raises_saturated_throughput(self):
        backend = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        pop = 1200
        slow = ClusterSpec.three_tier(1, 1, 1)
        fast_app = ClusterSpec(
            [
                NodePlacement("proxy0", Role.PROXY),
                NodePlacement("app0", Role.APP, NodeSpec(cpu_speed=2.0)),
                NodePlacement("db0", Role.DB),
            ]
        )
        w_slow = backend.measure(
            Scenario(cluster=slow, mix=ORDERING_MIX, population=pop),
            slow.default_configuration(), seed=1,
        )
        w_fast = backend.measure(
            Scenario(cluster=fast_app, mix=ORDERING_MIX, population=pop),
            fast_app.default_configuration(), seed=1,
        )
        # Ordering is app-bound, so a 2x app CPU must help materially.
        assert w_fast.wips > w_slow.wips * 1.1
        assert w_fast.utilization["app0"].cpu < w_slow.utilization["app0"].cpu

    def test_more_memory_relieves_pressure(self):
        backend = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        small = ClusterSpec.three_tier(1, 1, 1)
        big_db = ClusterSpec(
            [
                NodePlacement("proxy0", Role.PROXY),
                NodePlacement("app0", Role.APP),
                NodePlacement("db0", Role.DB, NodeSpec(memory_bytes=4 * GB)),
            ]
        )
        # A memory-hungry database configuration.
        hungry = {
            "db0.max_connections": 1000,
            "db0.join_buffer_size": 16777216,
            "db0.thread_stack": 1048576,
        }
        sc_small = Scenario(cluster=small, mix=ORDERING_MIX, population=600)
        sc_big = Scenario(cluster=big_db, mix=ORDERING_MIX, population=600)
        m_small = backend.measure(
            sc_small, small.default_configuration().replace(**hungry), seed=1
        )
        m_big = backend.measure(
            sc_big, big_db.default_configuration().replace(**hungry), seed=1
        )
        assert m_big.wips > m_small.wips

    def test_faster_disk_helps_browsing(self):
        backend = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        pop = 900
        stock = ClusterSpec.three_tier(1, 1, 1)
        fast_disk = ClusterSpec(
            [
                NodePlacement(
                    "proxy0", Role.PROXY, NodeSpec(disk_access_time=2e-3)
                ),
                NodePlacement("app0", Role.APP),
                NodePlacement("db0", Role.DB),
            ]
        )
        w_stock = backend.measure(
            Scenario(cluster=stock, mix=BROWSING_MIX, population=pop),
            stock.default_configuration(), seed=1,
        ).wips
        w_fast = backend.measure(
            Scenario(cluster=fast_disk, mix=BROWSING_MIX, population=pop),
            fast_disk.default_configuration(), seed=1,
        ).wips
        assert w_fast > w_stock * 1.1  # browsing is proxy-disk bound


class TestEndToEndPersistence:
    def test_tune_save_reload_remeasure(self, tmp_path):
        """The operator workflow: tune, save best, reload, apply."""
        from repro.tuning.session import ClusterTuningSession, make_scheme
        from repro.util.serialization import (
            load_configuration,
            save_configuration,
        )

        cluster = ClusterSpec.three_tier(1, 1, 1)
        scenario = Scenario(cluster=cluster, mix=BROWSING_MIX, population=750)
        backend = AnalyticBackend()
        session = ClusterTuningSession(
            backend, scenario, scheme=make_scheme(scenario, "default"), seed=21
        )
        baseline = session.measure_baseline().window_stats(0).mean
        session.run(50)
        best = session.best_configuration()
        path = tmp_path / "best.json"
        save_configuration(best, path)

        reloaded = load_configuration(path)
        assert reloaded == best
        quiet = AnalyticBackend(noise=NoiseModel(0.0, 0.0, 0.0))
        applied = quiet.measure(scenario, reloaded, seed=99)
        assert applied.wips > baseline
