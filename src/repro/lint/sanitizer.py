"""Runtime coherence sanitizer for the memos the fleet feeds.

The static rules catch what the AST shows; this module catches what only
an execution shows.  When enabled (``REPRO_SANITIZE=1`` in the
environment, ``--sanitize`` on ``repro experiment``, or a test's
:func:`scope`), the memos (:class:`~repro.model.base.ContentMemo`) call
:func:`check_coherent`, and the sanitizer reports one dynamic hazard
through the ordinary lint :class:`Finding` schema (``phase="runtime"``):

* **RPL153 — cache coherence divergence.**  :func:`check_coherent`
  compares the value being merged against the value already cached
  under the same content-addressed key (``ContentMemo.absorb``, where a
  fleet worker's entries meet the parent's).  Merging caches across
  processes rests on "any writer writes the same bytes"; a divergence
  is a fingerprint bug upstream and would silently split results by
  cache topology.

The sanitizer is deliberately dependency-free and in-process: state is
module-global and never crosses ``fork``.  Only the parent absorbs
entries another process computed (a fleet worker absorbs its start-up
snapshot into fresh memos), so every finding is recorded in the parent.
Zero overhead when inactive: the hook returns immediately, and importing
this module loads none of the linter (the finding types load when the
first finding is recorded).
"""

from __future__ import annotations

import os
import traceback
from contextlib import contextmanager
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.lint.core import Finding

__all__ = [
    "RUNTIME_RULES",
    "active",
    "check_coherent",
    "findings",
    "reset",
    "scope",
]

#: Runtime rule ids and their one-line descriptions (docs + ``--rules``).
RUNTIME_RULES = {
    "RPL153": "cache coherence divergence (same key, different value)",
}

_ENV_VAR = "REPRO_SANITIZE"

_FINDINGS: list[Finding] = []
_SEEN: set[tuple] = set()
#: Forced-activation depth (tests' :func:`scope`).
_FORCED = 0


def active() -> bool:
    """Whether the sanitizer is currently recording."""
    if _FORCED:
        return True
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


# ----------------------------------------------------------------------
# Finding collection
# ----------------------------------------------------------------------
def _site() -> tuple[str, int]:
    """(path, line) of the nearest caller outside this module."""
    here = os.path.abspath(__file__)
    for frame in reversed(traceback.extract_stack()):
        if os.path.abspath(frame.filename) != here:
            return _relpath(frame.filename), frame.lineno or 1
    return "<unknown>", 1


def _relpath(filename: str) -> str:
    """A stable, root-relative posix path for report output."""
    posix = PurePosixPath(filename.replace(os.sep, "/"))
    parts = posix.parts
    for anchor in ("src", "tests"):
        if anchor in parts:
            return str(PurePosixPath(*parts[parts.index(anchor):]))
    return posix.name


def _record(rule: str, message: str) -> None:
    from repro.lint.core import Finding, Severity

    path, line = _site()
    finding = Finding(
        path=path,
        line=line,
        col=0,
        rule=rule,
        severity=Severity.ERROR,
        message=message,
        phase="runtime",
    )
    dedup = (rule, path, line, message)
    if dedup not in _SEEN:
        _SEEN.add(dedup)
        _FINDINGS.append(finding)


def findings() -> list[Finding]:
    """Everything recorded since the last :func:`reset` (sorted)."""
    return sorted(_FINDINGS)


def reset() -> None:
    """Clear all recorded findings."""
    _FINDINGS.clear()
    _SEEN.clear()


@contextmanager
def scope() -> Iterator[list[Finding]]:
    """Force-activate with isolated findings; yields the captured list.

    Tests use this to *deliberately* trigger violations (injected
    divergent values) without contaminating the process-wide findings
    an env-enabled run would report at exit: outer state is snapshotted
    on entry and restored on exit, and the yielded list receives exactly
    the findings recorded inside.
    """
    global _FORCED
    saved = (list(_FINDINGS), set(_SEEN))
    reset()
    _FORCED += 1
    captured: list[Finding] = []
    try:
        yield captured
    finally:
        captured.extend(sorted(_FINDINGS))
        _FINDINGS[:] = saved[0]
        _SEEN.clear()
        _SEEN.update(saved[1])
        _FORCED -= 1


# ----------------------------------------------------------------------
# Coherence check (RPL153)
# ----------------------------------------------------------------------
def _divergent(old: Any, new: Any) -> bool:
    try:
        equal = bool(old == new)
    except Exception:
        equal = False
    if equal:
        return False
    # Fall back to repr: domain values (solutions, measurements) may not
    # define __eq__, but their reprs are deterministic dataclass dumps.
    return repr(old) != repr(new)


def check_coherent(kind: str, key: Any, old: Any, new: Any) -> None:
    """Record RPL153 when a cache key is re-published with a new value."""
    if not active() or old is None or new is None:
        return
    if _divergent(old, new):
        _record(
            "RPL153",
            f"cache coherence divergence in {kind!r} for key {key!r}: "
            "the value being published differs from the value already "
            "cached; content-addressed keys must determine their values",
        )
