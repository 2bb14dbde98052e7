"""Crash-safe checkpointing and the durable store (PR 9).

The hard guarantee under test: a run killed at *any* iteration and
resumed from its write-ahead journal produces results bit-identical to
the uninterrupted run — for plain sessions, for sessions under injected
cluster faults with a resilience policy, and for the fan-out experiment
drivers.  Alongside it: the frame format survives torn tails and detects
corruption, the disk-backed store quarantines damaged entries instead of
serving them, and the executor degrades shared → process → inline when
the fleet cannot be built.
"""

import json
import os

import pytest

from repro.cluster.topology import ClusterSpec
from repro.durability.framing import (
    FrameError,
    append_frame,
    frame,
    scan_file,
    scan_frames,
    write_frames,
)
from repro.durability.journal import (
    ExperimentJournal,
    JournalError,
    SessionJournal,
)
from repro.durability.diskstore import StorePersistence
from repro.experiments import fig4
from repro.experiments.runner import ExperimentConfig
from repro.faults.backend import FaultyBackend
from repro.faults.engine import (
    EngineFaultInjector,
    EngineFaultPlan,
    FleetUnavailableError,
)
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.model.analytic import AnalyticBackend
from repro.model.base import MemoizedBackend, Scenario
from repro.parallel.engine import SharedEngine
from repro.parallel.executor import ParallelExecutor
from repro.parallel.plan import RunSpec
from repro.tpcw.interactions import STANDARD_MIXES
from repro.tuning.session import ClusterTuningSession, make_scheme
from repro.util.serialization import atomic_write_json


# ----------------------------------------------------------------------
# Frame format
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.bin"
        payloads = [b"alpha", b"", b"\x00" * 1000, b"omega"]
        with open(path, "wb") as fh:
            for p in payloads:
                append_frame(fh, p, fsync=False)
        scan = scan_file(path)
        assert scan.payloads == tuple(payloads)
        assert not scan.torn_tail
        assert scan.corrupt_frames == 0

    def test_torn_tail_tolerated_and_truncatable(self, tmp_path):
        path = tmp_path / "frames.bin"
        data = frame(b"one") + frame(b"two")
        cut = len(frame(b"one")) + 5  # mid-way through frame two
        path.write_bytes(data[:cut])
        scan = scan_file(path)
        assert scan.payloads == (b"one",)
        assert scan.torn_tail
        assert scan.valid_bytes == len(frame(b"one"))

    def test_mid_file_corruption_raises_in_strict_mode(self):
        data = bytearray(frame(b"one") + frame(b"two") + frame(b"three"))
        data[len(frame(b"one")) + 9] ^= 0xFF  # flip a payload byte of frame two
        with pytest.raises(FrameError):
            scan_frames(bytes(data))

    def test_bad_final_frame_reads_as_torn_tail(self):
        data = bytearray(frame(b"one") + frame(b"two"))
        data[len(frame(b"one")) + 9] ^= 0xFF
        scan = scan_frames(bytes(data))
        assert scan.payloads == (b"one",)
        assert scan.torn_tail

    def test_resync_mode_skips_and_counts(self):
        data = bytearray(frame(b"one") + frame(b"two") + frame(b"three"))
        data[len(frame(b"one")) + 9] ^= 0xFF
        scan = scan_frames(bytes(data), stop_on_error=False)
        assert scan.payloads == (b"one", b"three")
        assert scan.corrupt_frames == 1

    def test_write_frames_is_atomic_whole_file(self, tmp_path):
        path = tmp_path / "frames.bin"
        write_frames(path, [b"a", b"b"])
        assert scan_file(path).payloads == (b"a", b"b")
        assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# Atomic result writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "result.json"
        atomic_write_json(path, {"x": 1.5})
        assert json.loads(path.read_text()) == {"x": 1.5}
        assert path.read_text().endswith("\n")

    def test_failed_write_preserves_previous_content(self, tmp_path):
        path = tmp_path / "result.json"
        atomic_write_json(path, {"x": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"x": 1}
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up


# ----------------------------------------------------------------------
# Session journal + kill/resume equivalence
# ----------------------------------------------------------------------
ITERATIONS = 10
HEADER = {"kind": "test-session", "seed": 3}


def _scenario() -> Scenario:
    return Scenario(
        cluster=ClusterSpec.three_tier(1, 1, 1),
        mix=STANDARD_MIXES["shopping"],
        population=200,
    )


def _session(journal=None, faults=None, resilience=None) -> ClusterTuningSession:
    backend = MemoizedBackend(AnalyticBackend())
    if faults is not None:
        backend = FaultyBackend(backend, faults)
    scenario = _scenario()
    return ClusterTuningSession(
        backend,
        scenario,
        scheme=make_scheme(scenario, "duplication"),
        seed=3,
        speculate=False,
        journal=journal,
        resilience=resilience,
    )


def _trajectory(session: ClusterTuningSession, steps: int) -> list:
    out = []
    for _ in range(steps):
        m = session.step()
        out.append((m.wips, m.raw_wips, m.error_rate, m.response_time))
    return out


def _fault_plan() -> FaultPlan:
    return FaultPlan.node_crash(
        "app0", at=3, recover_at=8, seed=0, transient_rate=0.2
    )


class TestSessionJournal:
    def test_fresh_refuses_existing_file(self, tmp_path):
        path = tmp_path / "run.journal"
        SessionJournal(path, HEADER).close()
        with pytest.raises(JournalError, match="--resume"):
            SessionJournal(path, HEADER)

    def test_resume_requires_file(self, tmp_path):
        with pytest.raises(JournalError, match="no journal at"):
            SessionJournal(tmp_path / "missing.journal", HEADER, resume=True)

    def test_header_mismatch_names_the_keys(self, tmp_path):
        path = tmp_path / "run.journal"
        SessionJournal(path, HEADER).close()
        with pytest.raises(JournalError, match="header mismatch on: seed"):
            SessionJournal(path, {**HEADER, "seed": 4}, resume=True)

    def test_torn_tail_truncated_on_resume(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = SessionJournal(path, HEADER)
        session = _session(journal=journal)
        _trajectory(session, 4)
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x01")  # torn partial frame at the tail
        resumed = SessionJournal(path, HEADER, resume=True)
        session = _session(journal=resumed)
        assert resumed.replaying
        _trajectory(session, 4)
        assert resumed.replayed == 4
        resumed.close()


class TestKillResumeEquivalence:
    """The acceptance criterion: SIGKILL at any k, resume, bit-identical."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _trajectory(_session(), ITERATIONS)

    @pytest.fixture(scope="class")
    def faulty_reference(self):
        session = _session(
            faults=_fault_plan(), resilience=ResiliencePolicy(max_retries=1)
        )
        trajectory = _trajectory(session, ITERATIONS)
        return trajectory, session.runner.backend.stats.as_dict()

    @pytest.mark.parametrize("kill_at", [1, ITERATIONS // 2, ITERATIONS - 1])
    def test_clean_session(self, tmp_path, reference, kill_at):
        path = tmp_path / "run.journal"
        journal = SessionJournal(path, HEADER)
        head = _trajectory(_session(journal=journal), kill_at)
        journal.close()  # everything else is simply abandoned: SIGKILL

        journal = SessionJournal(path, HEADER, resume=True)
        trajectory = _trajectory(_session(journal=journal), ITERATIONS)
        assert journal.replayed == kill_at
        journal.close()
        assert head == reference[:kill_at]
        assert trajectory == reference  # exact float equality: bit-identical

    @pytest.mark.parametrize("kill_at", [1, ITERATIONS // 2, ITERATIONS - 1])
    def test_faulty_resilient_session(self, tmp_path, faulty_reference, kill_at):
        """Replay must restore the fault timeline too: injected failures,
        retries, and backoff advance identically after resume."""
        reference, reference_stats = faulty_reference
        path = tmp_path / "run.journal"
        journal = SessionJournal(path, HEADER)
        session = _session(
            journal=journal,
            faults=_fault_plan(),
            resilience=ResiliencePolicy(max_retries=1),
        )
        _trajectory(session, kill_at)
        journal.close()

        journal = SessionJournal(path, HEADER, resume=True)
        session = _session(
            journal=journal,
            faults=_fault_plan(),
            resilience=ResiliencePolicy(max_retries=1),
        )
        trajectory = _trajectory(session, ITERATIONS)
        journal.close()
        assert trajectory == reference
        assert session.runner.backend.stats.as_dict() == reference_stats


# ----------------------------------------------------------------------
# Experiment journal + driver resume
# ----------------------------------------------------------------------
class TestExperimentJournal:
    def test_put_get_round_trip(self, tmp_path):
        path = tmp_path / "exp.journal"
        journal = ExperimentJournal(path, {"experiment": "x"})
        journal.put(("a", 1), {"wips": 2.5}, {"hits": 1.0})
        journal.put(("a", 1), {"wips": 2.5}, {"hits": 1.0})  # idempotent
        journal.close()
        journal = ExperimentJournal(path, {"experiment": "x"}, resume=True)
        assert len(journal) == 1
        assert journal.get(("a", 1)) == ({"wips": 2.5}, {"hits": 1.0})
        assert journal.get("missing") is None
        journal.close()


class TestExperimentResume:
    @pytest.fixture(scope="class")
    def reduced(self):
        return ExperimentConfig(iterations=8, baseline_iterations=4)

    @pytest.fixture(scope="class")
    def reference(self, reduced):
        return json.dumps(fig4.run(reduced).canonical_dict(), sort_keys=True)

    @staticmethod
    def _journal_then_resume(path, reduced, reference, **engine):
        """Run fig4 with a full journal, resume from it, check both runs.

        A resumed run serves every spec from the journal, value and
        cache-counter delta alike, so it must report the same results
        and the same cache counters as the run that wrote the journal.
        """
        config = dict(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            journal=str(path),
            **engine,
        )
        journaled = fig4.run(ExperimentConfig(**config))
        assert json.dumps(journaled.canonical_dict(), sort_keys=True) == reference

        resumed = fig4.run(ExperimentConfig(**config, resume=True))
        assert json.dumps(resumed.canonical_dict(), sort_keys=True) == reference
        assert resumed.cache_stats == journaled.cache_stats

    def test_full_journal_then_resume(self, tmp_path, reduced, reference):
        self._journal_then_resume(tmp_path / "fig4.journal", reduced, reference)

    def test_full_journal_then_resume_shared_jobs1(
        self, tmp_path, reduced, reference
    ):
        SharedEngine.reset()
        try:
            self._journal_then_resume(
                tmp_path / "fig4.journal",
                reduced,
                reference,
                engine="shared",
                jobs=1,
            )
        finally:
            SharedEngine.reset()

    def test_truncated_journal_resume(self, tmp_path, reduced, reference):
        """A journal cut mid-frame (the on-disk state of a SIGKILL during
        a commit) resumes to the bit-identical result."""
        path = tmp_path / "fig4.journal"
        fig4.run(
            ExperimentConfig(
                iterations=reduced.iterations,
                baseline_iterations=reduced.baseline_iterations,
                journal=str(path),
            )
        )
        scan = scan_file(path)
        keep = 1 + (len(scan.payloads) - 1) // 2  # header + half the commits
        prefix = b"".join(frame(p) for p in scan.payloads[:keep])
        path.write_bytes(prefix + frame(scan.payloads[keep])[:7])  # torn tail
        resumed = fig4.run(
            ExperimentConfig(
                iterations=reduced.iterations,
                baseline_iterations=reduced.baseline_iterations,
                journal=str(path),
                resume=True,
            )
        )
        assert json.dumps(resumed.canonical_dict(), sort_keys=True) == reference

    def test_fresh_run_refuses_existing_journal(self, tmp_path, reduced):
        path = tmp_path / "fig4.journal"
        cfg = ExperimentConfig(
            iterations=reduced.iterations,
            baseline_iterations=reduced.baseline_iterations,
            journal=str(path),
        )
        fig4.run(cfg)
        with pytest.raises(JournalError, match="--resume"):
            fig4.run(cfg)


# ----------------------------------------------------------------------
# Durable store
# ----------------------------------------------------------------------
class TestStorePersistence:
    def test_flush_load_round_trip(self, tmp_path):
        store = StorePersistence(tmp_path / "store")
        store.flush({"a": 1, "b": (2.5, "x")})
        store.flush({"a": 1, "b": (2.5, "x"), "c": [3]})  # only c is new
        reloaded = StorePersistence(tmp_path / "store")
        assert reloaded.load() == {"a": 1, "b": (2.5, "x"), "c": [3]}
        stats = reloaded.stats()
        assert stats["segments"] == 2
        assert stats["quarantined"] == 0

    def test_corrupt_entry_quarantined_never_served(self, tmp_path):
        root = tmp_path / "store"
        store = StorePersistence(root)
        store.flush({"good": 1})
        store.flush({"good": 1, "bad": 2})
        segment = sorted(root.glob("segment-*.seg"))[-1]
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the last entry's payload
        segment.write_bytes(bytes(data))
        reloaded = StorePersistence(root)
        loaded = reloaded.load()
        assert loaded == {"good": 1}  # the bad entry is dropped, not served
        assert reloaded.stats()["quarantined"] >= 1

    def test_torn_write_quarantined_then_recoverable(self, tmp_path):
        root = tmp_path / "store"
        injector = EngineFaultInjector(EngineFaultPlan(torn_store_writes=(1,)))
        store = StorePersistence(root, injector=injector)
        store.flush({"k": 41})  # lands torn
        assert injector.stats.torn_writes == 1
        reloaded = StorePersistence(root)
        assert reloaded.load() == {}
        # The torn flush never marked the key persisted: a later flush
        # (post-crash restart) writes it again, intact this time.
        store2 = StorePersistence(root)
        store2.load()
        store2.flush({"k": 41})
        assert StorePersistence(root).load() == {"k": 41}

    def test_later_segments_win(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        write_frames(
            root / "segment-000001.seg",
            [json.dumps({"schema": "repro-store-segment/v1"}).encode()]
            + [_pickle_entry("k", 1)],
        )
        write_frames(
            root / "segment-000002.seg",
            [json.dumps({"schema": "repro-store-segment/v1"}).encode()]
            + [_pickle_entry("k", 2)],
        )
        assert StorePersistence(root).load() == {"k": 2}


def _pickle_entry(key, value):
    import pickle

    return pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Engine fault plans + degradation ladder
# ----------------------------------------------------------------------
def _probe(x):
    return x * 3


class TestEngineFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = EngineFaultPlan(
            kill_worker_runs=(2,), build_failures=1, slow_runs=(3,),
            torn_store_writes=(1,),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert EngineFaultPlan.load(path) == plan
        assert EngineFaultPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            EngineFaultPlan(kill_worker_runs=(0,))
        with pytest.raises(ValueError, match="build_failures"):
            EngineFaultPlan(build_failures=-1)
        with pytest.raises(ValueError, match="both killed and slow"):
            EngineFaultPlan(kill_worker_runs=(1,), slow_runs=(1,))
        with pytest.raises(ValueError, match="unknown"):
            EngineFaultPlan.from_dict({"frobnicate": 1})

    def test_injector_ordinals(self):
        injector = EngineFaultInjector(
            EngineFaultPlan(kill_worker_runs=(2,), build_failures=1)
        )
        assert injector.on_build() is True
        assert injector.on_build() is False
        assert injector.on_pool_run() is None
        assert injector.on_pool_run() == "kill"
        assert injector.on_pool_run() is None


class TestDegradationLadder:
    def _specs(self):
        return [RunSpec(("p", i), _probe, {"x": i}) for i in range(4)]

    def test_shared_to_process_to_inline(self):
        injector = EngineFaultInjector(EngineFaultPlan(build_failures=2))
        executor = ParallelExecutor(2, engine="shared", faults=injector)
        results = executor.run(self._specs())
        assert executor.degradations == ["shared->process", "process->inline"]
        assert results == {("p", i): i * 3 for i in range(4)}
        assert injector.stats.degradations == executor.degradations

    def test_shared_degrades_once_when_pool_builds(self):
        injector = EngineFaultInjector(EngineFaultPlan(build_failures=1))
        executor = ParallelExecutor(2, engine="shared", faults=injector)
        results = executor.run(self._specs())
        assert executor.degradations == ["shared->process"]
        assert results == {("p", i): i * 3 for i in range(4)}

    def test_pool_worker_kill_degrades_to_inline(self):
        injector = EngineFaultInjector(EngineFaultPlan(kill_worker_runs=(1,)))
        executor = ParallelExecutor(2, engine="process", faults=injector)
        results = executor.run(self._specs())
        assert executor.degradations == ["process->inline"]
        assert results == {("p", i): i * 3 for i in range(4)}

    def test_no_faults_no_degradation(self):
        executor = ParallelExecutor(1, engine="inline")
        executor.run(self._specs())
        assert executor.degradations == []
