"""Disk persistence for the shared engine's measurement/solution entries.

A store directory holds numbered segment files (``segment-000001.seg``…),
each a framed sequence (:mod:`repro.durability.framing`) of pickled
``(key, value)`` entries behind a JSON header frame.  Segments are
immutable once written and published atomically (temp file +
``os.replace``), so a crash mid-flush leaves either the previous segment
set or the new one — never a half-segment.

Loading is paranoid by design: every entry re-validates its CRC, and a
bad entry (flipped byte, truncated tail, unpicklable payload) is
*quarantined* — dropped, counted in :attr:`StorePersistence.quarantined`,
and never served to a cache consumer.  The store is a cache of
deterministic computations, so dropping an entry only costs a re-solve;
serving a corrupt one would poison bit-identical results.
"""

from __future__ import annotations

import json
import pathlib
import pickle
from typing import Any, Optional, Union

from repro.durability.framing import frame, scan_file
from repro.util.serialization import atomic_write_bytes

__all__ = ["SEGMENT_SCHEMA", "StorePersistence"]

PathLike = Union[str, pathlib.Path]

SEGMENT_SCHEMA = "repro-store-segment/v1"
_SEGMENT_GLOB = "segment-*.seg"


class StorePersistence:
    """Segmented, checksummed, atomically-published store snapshots.

    ``injector`` (an :class:`~repro.faults.engine.EngineFaultInjector`)
    lets chaos runs tear scheduled segment writes exactly the way a
    crash mid-``write`` would, before the atomic rename publishes them.
    """

    def __init__(self, root: PathLike, injector: Optional[Any] = None) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.injector = injector
        #: Corrupt entries dropped across every load so far.
        self.quarantined = 0
        #: Entries loaded successfully across every load so far.
        self.loaded = 0
        #: Segments written by this instance.
        self.segments_written = 0
        #: Keys already on disk (loaded or flushed) — flush() skips them.
        self._persisted: set[Any] = set()

    # ------------------------------------------------------------------
    def _segments(self) -> list[pathlib.Path]:
        return sorted(self.root.glob(_SEGMENT_GLOB))

    def _next_segment_path(self) -> pathlib.Path:
        segments = self._segments()
        if not segments:
            ordinal = 1
        else:
            ordinal = int(segments[-1].stem.split("-")[1]) + 1
        return self.root / f"segment-{ordinal:06d}.seg"

    def load(self) -> dict[Any, Any]:
        """Read every segment, quarantining damaged entries.

        Later segments win on duplicate keys (they were written later).
        Returns the surviving entries; corruption never raises — a cache
        that cannot load is an empty cache, not a failed run.
        """
        entries: dict[Any, Any] = {}
        for segment in self._segments():
            scan = scan_file(segment, stop_on_error=False)
            self.quarantined += scan.corrupt_frames + scan.torn_tail
            payloads = scan.payloads
            if not payloads:
                continue
            try:
                header = json.loads(payloads[0].decode("utf-8"))
                ok_header = header.get("schema") == SEGMENT_SCHEMA
            except (ValueError, UnicodeDecodeError):
                ok_header = False
            if not ok_header:
                # Unrecognizable segment: quarantine it wholesale.
                self.quarantined += len(payloads)
                continue
            for payload in payloads[1:]:
                try:
                    key, value = pickle.loads(payload)
                except Exception:
                    self.quarantined += 1
                    continue
                entries[key] = value
                self.loaded += 1
        self._persisted.update(entries)
        return entries

    def flush(self, mapping: dict[Any, Any]) -> int:
        """Write every not-yet-persisted entry of ``mapping`` as a segment.

        Returns the number of entries written (0 writes no segment).
        Keys are sorted by repr so the same store contents produce the
        same segment bytes regardless of dict insertion order.
        """
        fresh = {
            key: value
            for key, value in mapping.items()
            if key not in self._persisted
        }
        if not fresh:
            return 0
        frames = [
            frame(
                json.dumps(
                    {"schema": SEGMENT_SCHEMA, "entries": len(fresh)},
                    sort_keys=True,
                ).encode("utf-8")
            )
        ]
        for key in sorted(fresh, key=repr):
            frames.append(frame(pickle.dumps((key, fresh[key]))))
        blob = b"".join(frames)
        if self.injector is not None and self.injector.on_segment_write():
            # Injected crash mid-write: the segment publishes torn, its
            # tail frame incomplete.  The *entries* are deliberately not
            # marked persisted — a later flush rewrites them, exactly as
            # a restarted run would.
            blob = blob[: max(len(frames[0]) + 7, len(blob) // 2)]
            atomic_write_bytes(self._next_segment_path(), blob)
            self.segments_written += 1
            return 0
        atomic_write_bytes(self._next_segment_path(), blob)
        self.segments_written += 1
        self._persisted.update(fresh)
        return len(fresh)

    def stats(self) -> dict[str, int]:
        """Persistence counters (for engine stats and chaos reports)."""
        return {
            "segments": len(self._segments()),
            "segments_written": self.segments_written,
            "entries_loaded": self.loaded,
            "entries_persisted": len(self._persisted),
            "quarantined": self.quarantined,
        }
