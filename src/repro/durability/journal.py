"""Write-ahead journals: crash-safe checkpointing for tuning runs.

Two granularities, same framing (:mod:`repro.durability.framing`):

* :class:`SessionJournal` — one JSON record per *measurement outcome* of a
  :class:`~repro.tuning.session.ClusterTuningSession`.  The session's own
  logic (simplex moves, retries, quarantine, reconfiguration) is
  deterministic given the outcome stream, so resume does not checkpoint
  tuner state at all: it re-executes the session against the journaled
  outcomes — cache-hot, no re-solving, no re-measuring — and the
  reconstructed state is bit-identical to the uninterrupted run *by
  construction*.  :class:`JournaledRunner` is the wedge: it wraps
  :class:`~repro.tuning.iteration.IterationRunner` and either records the
  real outcome (append+flush+fsync *before* the session sees it) or
  replays the next committed one.

* :class:`ExperimentJournal` — one pickled record per completed
  :class:`~repro.parallel.plan.RunSpec` of a fan-out experiment
  (fig4/table4/sensitivity/scale).  Specs are pure functions of their
  kwargs, so a resumed run serves completed specs from the journal and
  executes only the remainder; per-spec cache-stat deltas ride along so
  resumed cache accounting matches the uninterrupted run.

Both journals open with a header frame carrying the run's fingerprint
(scenario, seed, iterations…).  ``--resume`` against a journal whose
header does not match the command line fails loudly — silently resuming
a *different* run is the one unrecoverable corruption.
"""

from __future__ import annotations

import json
import pathlib
import pickle
from collections import deque
from typing import Any, Mapping, Optional, Union

from repro.durability.framing import (
    FrameError,
    append_frame,
    scan_file,
)
from repro.harmony.parameter import Configuration
from repro.model.base import Measurement, ResourceUtilization

__all__ = [
    "ExperimentJournal",
    "JournalError",
    "JournaledRunner",
    "ReplayedMeasurementError",
    "SessionJournal",
    "measurement_from_dict",
    "measurement_to_dict",
]

PathLike = Union[str, pathlib.Path]

SESSION_SCHEMA = "repro-session-journal/v1"
EXPERIMENT_SCHEMA = "repro-experiment-journal/v1"


class JournalError(RuntimeError):
    """A journal cannot be created, resumed, or replayed."""


class ReplayedMeasurementError(RuntimeError):
    """Replay of a journaled measurement failure.

    The original exception type lives in ``error``; the session's
    failure handling (retry/backoff/penalize) only needs *an* exception
    here, and its committed state evolves identically either way.
    """

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"replayed {error}: {message}")
        self.error = error


def measurement_to_dict(measurement: Measurement) -> dict[str, Any]:
    """JSON-safe dict that round-trips a :class:`Measurement` exactly.

    Floats survive ``json.dumps``/``loads`` bit-for-bit (repr round-trip),
    which is what makes journal replay *byte*-identical, not just close.
    """
    return {
        "wips": measurement.wips,
        "raw_wips": measurement.raw_wips,
        "error_rate": measurement.error_rate,
        "response_time": measurement.response_time,
        "utilization": {
            node: util.as_dict()
            for node, util in measurement.utilization.items()
        },
        "diagnostics": dict(measurement.diagnostics),
        "per_line_wips": dict(measurement.per_line_wips),
    }


def measurement_from_dict(data: Mapping[str, Any]) -> Measurement:
    """Inverse of :func:`measurement_to_dict`."""
    return Measurement(
        wips=data["wips"],
        raw_wips=data["raw_wips"],
        error_rate=data["error_rate"],
        response_time=data["response_time"],
        utilization={
            node: ResourceUtilization(**util)
            for node, util in data["utilization"].items()
        },
        diagnostics=dict(data["diagnostics"]),
        per_line_wips=dict(data["per_line_wips"]),
    )


def _check_header(
    stored: Mapping[str, Any], expected: Mapping[str, Any], path: str
) -> None:
    if dict(stored) != dict(expected):
        diffs = sorted(
            k
            for k in set(stored) | set(expected)
            if stored.get(k) != expected.get(k)
        )
        raise JournalError(
            f"journal {path} belongs to a different run "
            f"(header mismatch on: {', '.join(diffs)})"
        )


class SessionJournal:
    """Append-only outcome log for one tuning session.

    Fresh runs (``resume=False``) refuse to overwrite an existing
    non-empty journal; resumed runs require one and replay its committed
    outcomes before recording continues.  A torn tail frame (process
    killed mid-append) is truncated away on resume: that measurement was
    never seen by the session, and the resumed run simply re-measures it
    deterministically.
    """

    def __init__(
        self,
        path: PathLike,
        header: Mapping[str, Any],
        *,
        resume: bool = False,
        fsync: bool = True,
    ) -> None:
        self.path = pathlib.Path(path)
        self.header = dict(header)
        self.fsync = fsync
        self.replayed = 0
        self.recorded = 0
        self.truncated_tail = 0
        pending: list[dict[str, Any]] = []
        if resume:
            if not self.path.exists():
                raise JournalError(f"cannot resume: no journal at {self.path}")
            try:
                scan = scan_file(self.path, stop_on_error=True)
            except FrameError as exc:
                raise JournalError(f"journal {self.path} is corrupt: {exc}") from exc
            if not scan.payloads:
                raise JournalError(f"journal {self.path} has no header frame")
            stored_header = json.loads(scan.payloads[0].decode("utf-8"))
            full_header = {"schema": SESSION_SCHEMA, **self.header}
            _check_header(stored_header, full_header, str(self.path))
            pending = [
                json.loads(p.decode("utf-8")) for p in scan.payloads[1:]
            ]
            self.truncated_tail = scan.torn_tail
            if scan.torn_tail:
                # Drop the incomplete frame so appends extend the
                # committed prefix, not the garbage tail.
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
            self._fh = open(self.path, "ab")
        else:
            if self.path.exists() and self.path.stat().st_size:
                raise JournalError(
                    f"journal {self.path} already exists; pass --resume to "
                    "continue it or remove it to start over"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "wb")
            self._append({"schema": SESSION_SCHEMA, **self.header})
        self._pending = deque(pending)

    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        """True while committed outcomes remain to be replayed."""
        return bool(self._pending)

    def _append(self, record: Mapping[str, Any]) -> None:
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        append_frame(self._fh, payload, fsync=self.fsync)

    def record_outcome(self, record: Mapping[str, Any]) -> None:
        """Commit one outcome (fsync'd before the caller proceeds)."""
        self._append(record)
        self.recorded += 1

    def next_outcome(self) -> dict[str, Any]:
        """Pop the next committed outcome during replay."""
        if not self._pending:
            raise JournalError("journal replay exhausted")
        self.replayed += 1
        return self._pending.popleft()

    def close(self) -> None:
        """Release the file handle (safe to call more than once)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JournaledRunner:
    """An :class:`IterationRunner` shim that records or replays outcomes.

    Transparent to the session: same ``run`` signature, same ``backend``/
    ``scenario``/``iterations_run`` surface.  Recording commits the
    outcome *before* returning it (write-ahead), so any outcome the
    session ever acted on is on disk.  Replaying reproduces the full side
    effect of the original call — the returned measurement or raised
    failure, one virtual backend tick, the backend's fault-stat deltas,
    and the runner's iteration count — without measuring anything.
    """

    def __init__(self, runner: Any, journal: SessionJournal) -> None:
        self.inner = runner
        self.journal = journal

    # -- IterationRunner surface --------------------------------------
    @property
    def backend(self) -> Any:
        return self.inner.backend

    @property
    def scenario(self) -> Any:
        return self.inner.scenario

    @scenario.setter
    def scenario(self, value: Any) -> None:
        self.inner.scenario = value

    @property
    def seed(self) -> int:
        return self.inner.seed

    @property
    def iterations_run(self) -> int:
        return self.inner.iterations_run

    # -- record / replay ----------------------------------------------
    def _stats_snapshot(self) -> Optional[dict[str, float]]:
        stats = getattr(self.inner.backend, "stats", None)
        as_dict = getattr(stats, "as_dict", None)
        if as_dict is None:
            return None
        return dict(as_dict())

    def _stats_delta(
        self, before: Optional[dict[str, float]]
    ) -> Optional[dict[str, float]]:
        if before is None:
            return None
        after = self._stats_snapshot() or {}
        delta = {k: after[k] - before.get(k, 0) for k in after}
        return {k: v for k, v in delta.items() if v} or None

    def _apply_stats_delta(self, delta: Optional[Mapping[str, float]]) -> None:
        if not delta:
            return
        stats = getattr(self.inner.backend, "stats", None)
        if stats is None:
            return
        for key, diff in delta.items():
            if hasattr(stats, key):
                setattr(stats, key, getattr(stats, key) + diff)

    @staticmethod
    def _config_digest(configuration: Mapping[str, int]) -> str:
        import hashlib

        items = Configuration.coerce(configuration).sorted_items()
        blob = repr(list(items)).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def _replay(self, configuration: Any, index: Optional[int]) -> Measurement:
        record = self.journal.next_outcome()
        digest = self._config_digest(configuration)
        if record.get("config") != digest:
            raise JournalError(
                "journal replay diverged: the resumed run asked to measure "
                f"configuration {digest}, the journal committed "
                f"{record.get('config')} — the command line or code differs "
                "from the original run"
            )
        # Reproduce the original call's backend side effects: exactly one
        # virtual tick per measure() call (FaultyBackend ticks first,
        # success or failure), and the fault counters it accumulated.
        advance = getattr(self.inner.backend, "advance", None)
        if advance is not None:
            advance(1)
        self._apply_stats_delta(record.get("stats"))
        if record["ok"]:
            if index is None:
                # The real runner numbers implicit iterations itself — and
                # only a *successful* measure consumes an index (a raise
                # skips the increment).  Keep its counter marching exactly
                # so post-replay iterations seed identically.
                self.inner._count += 1
            return measurement_from_dict(record["m"])
        raise ReplayedMeasurementError(
            record.get("error", "Exception"), record.get("message", "")
        )

    def run(self, configuration: Any, index: Optional[int] = None) -> Measurement:
        if self.journal.replaying:
            return self._replay(configuration, index)
        before = self._stats_snapshot()
        digest = self._config_digest(configuration)
        try:
            measurement = self.inner.run(configuration, index=index)
        except Exception as exc:
            self.journal.record_outcome(
                {
                    "ok": False,
                    "config": digest,
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "stats": self._stats_delta(before),
                }
            )
            raise
        self.journal.record_outcome(
            {
                "ok": True,
                "config": digest,
                "m": measurement_to_dict(measurement),
                "stats": self._stats_delta(before),
            }
        )
        return measurement


class ExperimentJournal:
    """Spec-granular write-ahead journal for fan-out experiments.

    Each committed record is ``pickle((key, value, cache_delta))``; the
    in-memory index maps spec keys to their results so a resumed
    :class:`~repro.parallel.executor.ParallelExecutor` serves completed
    specs instantly and runs only the remainder.  Records are committed
    per spec as results stream in, so a kill mid-plan loses only the
    in-flight specs.
    """

    def __init__(
        self,
        path: PathLike,
        header: Mapping[str, Any],
        *,
        resume: bool = False,
        fsync: bool = True,
    ) -> None:
        self.path = pathlib.Path(path)
        self.header = dict(header)
        self.fsync = fsync
        self.replayed = 0
        self.recorded = 0
        self.truncated_tail = 0
        entries: dict[Any, tuple[Any, Optional[dict]]] = {}
        if resume:
            if not self.path.exists():
                raise JournalError(f"cannot resume: no journal at {self.path}")
            try:
                scan = scan_file(self.path, stop_on_error=True)
            except FrameError as exc:
                raise JournalError(f"journal {self.path} is corrupt: {exc}") from exc
            if not scan.payloads:
                raise JournalError(f"journal {self.path} has no header frame")
            stored_header = pickle.loads(scan.payloads[0])
            full_header = {"schema": EXPERIMENT_SCHEMA, **self.header}
            _check_header(stored_header, full_header, str(self.path))
            for payload in scan.payloads[1:]:
                key, value, delta = pickle.loads(payload)
                entries[key] = (value, delta)
            self.truncated_tail = scan.torn_tail
            if scan.torn_tail:
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
            self._fh = open(self.path, "ab")
        else:
            if self.path.exists() and self.path.stat().st_size:
                raise JournalError(
                    f"journal {self.path} already exists; pass --resume to "
                    "continue it or remove it to start over"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "wb")
            append_frame(
                self._fh,
                pickle.dumps({"schema": EXPERIMENT_SCHEMA, **self.header}),
                fsync=self.fsync,
            )
        self._entries = entries

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[tuple[Any, Optional[dict]]]:
        """The committed ``(value, cache_delta)`` for ``key``, if any."""
        hit = self._entries.get(key)
        if hit is not None:
            self.replayed += 1
        return hit

    def put(self, key: Any, value: Any, delta: Optional[dict]) -> None:
        """Commit one completed spec (idempotent per key)."""
        if key in self._entries:
            return
        append_frame(
            self._fh, pickle.dumps((key, value, delta)), fsync=self.fsync
        )
        self._entries[key] = (value, delta)
        self.recorded += 1

    def close(self) -> None:
        """Release the file handle (safe to call more than once)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ExperimentJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
