"""Runtime concurrency sanitizer for the shared execution engine.

The RPL10x rules catch what the AST shows; this module catches what only
an execution shows.  When enabled (``REPRO_SANITIZE=1`` in the
environment, ``--sanitize`` on the CLI, or a test's :func:`scope`), the
``repro.parallel`` hot objects and the memos
(:class:`~repro.model.base.ContentMemo`) construct their locks through
:func:`wrap_lock` and call the check hooks below, and the sanitizer
records *real* held-lock sets, access sites, and cache values to report
three dynamic hazards through the ordinary lint :class:`Finding` schema
(``phase="runtime"``):

* **RPL151 — lock-order inversion observed.**  Every acquisition while
  other tracked locks are held adds an edge to a global lock-order
  graph; the first acquisition that completes a cycle is reported with
  both conflicting sites.  Unlike static RPL103 this sees orders
  composed *across* modules and through callbacks.
* **RPL152 — unsynchronized concurrent mutation.**  A
  :func:`monitored_region` entered by two threads at once with no
  tracked lock in common (and at least one writer), or an
  :func:`expect_held` assertion failing, means the guarding discipline
  the code claims is not actually held on this path.
* **RPL153 — cache coherence divergence.**  :func:`check_coherent`
  compares the value being merged against the value already cached
  under the same content-addressed key (``ContentMemo.absorb``, where a
  fleet worker's entries meet the parent's).  Merging caches across
  processes rests on "any writer writes the same bytes"; a divergence
  is a fingerprint bug upstream and would silently split results by
  cache topology.

The sanitizer is deliberately dependency-free and in-process: state is
module-global, guarded by one short-hold lock, and never crosses
``fork`` (fleet workers run their own sanitizer; their findings travel
home in the worker's return tuple and are absorbed via :func:`absorb`).
Zero overhead when inactive: :func:`wrap_lock` returns the raw lock and
every hook returns immediately.
"""

from __future__ import annotations

import os
import threading
import traceback
from contextlib import contextmanager
from pathlib import PurePosixPath
from typing import Any, Iterator, Optional, Sequence

from repro.lint.core import Finding, Severity

__all__ = [
    "RUNTIME_RULES",
    "active",
    "wrap_lock",
    "TrackedLock",
    "expect_held",
    "monitored_region",
    "check_coherent",
    "findings",
    "take_findings",
    "absorb",
    "reset",
    "scope",
]

#: Runtime rule ids and their one-line descriptions (docs + ``--rules``).
RUNTIME_RULES = {
    "RPL151": "lock-order inversion observed at runtime",
    "RPL152": "unsynchronized concurrent mutation of shared state",
    "RPL153": "cache coherence divergence (same key, different value)",
}

_ENV_VAR = "REPRO_SANITIZE"

# Guards the module-global sanitizer state below.  Held only for short
# bookkeeping (never across user code, IPC, or fork), and fleet workers
# re-import this module fresh rather than inheriting parent state.
_STATE_LOCK = threading.Lock()  # repro: noqa[RPL106] — short-hold bookkeeping lock, never crosses fork
_FINDINGS: list[Finding] = []
_SEEN: set[tuple] = set()
#: Observed lock-order edges: (held_name, acquired_name) -> site string.
_EDGES: dict[tuple[str, str], str] = {}
#: Active monitored regions: name -> list of (thread_id, held, op, site).
_REGIONS: dict[str, list[tuple[int, frozenset[str], str, tuple[str, int]]]] = {}
#: Forced-activation depth (tests' :func:`scope`).
_FORCED = 0

_TLS = threading.local()


def active() -> bool:
    """Whether the sanitizer is currently recording."""
    if _FORCED:
        return True
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


# ----------------------------------------------------------------------
# Finding collection
# ----------------------------------------------------------------------
def _site(skip_self: bool = True) -> tuple[str, int]:
    """(path, line) of the nearest caller outside this module/threading."""
    here = os.path.abspath(__file__)
    threading_file = os.path.abspath(threading.__file__)
    for frame in reversed(traceback.extract_stack()):
        filename = os.path.abspath(frame.filename)
        if skip_self and filename in (here, threading_file):
            continue
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


def _record(rule: str, message: str, site: Optional[tuple[str, int]] = None) -> None:
    path, line = site if site is not None else _site()
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
    with _STATE_LOCK:
        if dedup not in _SEEN:
            _SEEN.add(dedup)
            _FINDINGS.append(finding)


def findings() -> list[Finding]:
    """Everything recorded since the last :func:`reset` (sorted)."""
    with _STATE_LOCK:
        return sorted(_FINDINGS)


def take_findings() -> list[Finding]:
    """Drain and return recorded findings (fleet workers ship these home)."""
    with _STATE_LOCK:
        out, _FINDINGS[:] = sorted(_FINDINGS), []
        _SEEN.clear()
        return out


def absorb(shipped: Sequence[Finding]) -> None:
    """Merge findings a fleet worker shipped back with its results."""
    if not shipped:
        return
    with _STATE_LOCK:
        for finding in shipped:
            dedup = (finding.rule, finding.path, finding.line, finding.message)
            if dedup not in _SEEN:
                _SEEN.add(dedup)
                _FINDINGS.append(finding)


def reset() -> None:
    """Clear all sanitizer state (findings, lock graph, regions)."""
    with _STATE_LOCK:
        _FINDINGS.clear()
        _SEEN.clear()
        _EDGES.clear()
        _REGIONS.clear()


@contextmanager
def scope() -> Iterator[list[Finding]]:
    """Force-activate with isolated findings; yields the captured list.

    Tests use this to *deliberately* trigger violations (injected
    lock inversions, seeded thread storms) without contaminating the
    process-wide findings an env-enabled run would report at exit:
    outer state is snapshotted on entry and restored on exit, and the
    yielded list receives exactly the findings recorded inside.
    """
    global _FORCED
    with _STATE_LOCK:
        saved = (list(_FINDINGS), set(_SEEN), dict(_EDGES), dict(_REGIONS))
        _FINDINGS.clear()
        _SEEN.clear()
        _EDGES.clear()
        _REGIONS.clear()
        _FORCED += 1
    captured: list[Finding] = []
    try:
        yield captured
    finally:
        with _STATE_LOCK:
            captured.extend(sorted(_FINDINGS))
            _FINDINGS[:] = saved[0]
            _SEEN.clear()
            _SEEN.update(saved[1])
            _EDGES.clear()
            _EDGES.update(saved[2])
            _REGIONS.clear()
            _REGIONS.update(saved[3])
            _FORCED -= 1


# ----------------------------------------------------------------------
# Lock tracking (RPL151)
# ----------------------------------------------------------------------
def _held_stack() -> list[str]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def _held_depths() -> dict[str, int]:
    depths = getattr(_TLS, "depths", None)
    if depths is None:
        depths = _TLS.depths = {}
    return depths


def held_locks() -> frozenset[str]:
    """Names of tracked locks the calling thread currently holds."""
    return frozenset(_held_stack())


class TrackedLock:
    """A lock proxy that records acquisition order and held sets.

    Wraps any ``threading`` lock (Lock, RLock) transparently — including
    as the lock of a ``threading.Condition``, for which the
    ``_is_owned``/``_release_save``/``_acquire_restore`` protocol is
    forwarded (``Condition.wait`` fully releases the lock, so the held
    stack drops the lock for the duration of the wait, exactly matching
    the real semantics).
    """

    def __init__(self, name: str, inner: Any) -> None:
        self.name = name
        self._inner = inner

    # -- core protocol -------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._note_acquire()
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._note_release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # -- Condition protocol --------------------------------------------
    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        return self.name in _held_depths()

    def _release_save(self) -> Any:
        if hasattr(self._inner, "_release_save"):
            state = self._inner._release_save()
        else:
            self._inner.release()
            state = None
        self._drop_all()
        return state

    def _acquire_restore(self, state: Any) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._note_acquire()

    # -- bookkeeping ---------------------------------------------------
    def _note_acquire(self) -> None:
        stack, depths = _held_stack(), _held_depths()
        depth = depths.get(self.name, 0)
        if depth == 0:
            if stack:
                self._check_order(tuple(stack))
            stack.append(self.name)
        depths[self.name] = depth + 1

    def _note_release(self) -> None:
        stack, depths = _held_stack(), _held_depths()
        depth = depths.get(self.name, 0)
        if depth <= 1:
            depths.pop(self.name, None)
            if self.name in stack:
                stack.remove(self.name)
        else:
            depths[self.name] = depth - 1

    def _drop_all(self) -> None:
        stack, depths = _held_stack(), _held_depths()
        depths.pop(self.name, None)
        if self.name in stack:
            stack.remove(self.name)

    def _check_order(self, held: tuple[str, ...]) -> None:
        site = _site()
        site_str = f"{site[0]}:{site[1]}"
        with _STATE_LOCK:
            inversions = []
            for prior in held:
                if prior == self.name:
                    continue
                _EDGES.setdefault((prior, self.name), site_str)
                reverse = _EDGES.get((self.name, prior))
                if reverse is not None:
                    inversions.append((prior, reverse))
        for prior, reverse in inversions:
            _record(
                "RPL151",
                f"lock-order inversion observed: acquired {self.name!r} "
                f"while holding {prior!r}, but the opposite order was "
                f"taken at {reverse}; two threads on these paths can "
                "deadlock",
                site,
            )


def wrap_lock(name: str, inner: Any) -> Any:
    """``inner`` wrapped in a :class:`TrackedLock` when active, else as-is.

    Callers keep the real lock construction visible at the call site
    (``wrap_lock("X._lock", threading.Lock())``) so the static RPL10x
    rules still recognize the attribute as a lock.
    """
    if not active():
        return inner
    return TrackedLock(name, inner)


def expect_held(lock: Any, what: str) -> None:
    """Assert the calling thread holds ``lock`` (no-op when inactive)."""
    if not active() or not isinstance(lock, TrackedLock):
        return
    if lock.name not in _held_depths():
        _record(
            "RPL152",
            f"{what} requires holding {lock.name!r}, but the calling "
            "thread does not hold it",
        )


# ----------------------------------------------------------------------
# Concurrent-mutation monitoring (RPL152)
# ----------------------------------------------------------------------
@contextmanager
def monitored_region(name: str, op: str = "write") -> Iterator[None]:
    """Mark a critical region on shared state named ``name``.

    While two threads are inside regions of the same name with no
    tracked lock in common — and at least one of them is a writer — the
    accesses can interleave arbitrarily, which is exactly an
    unsynchronized-mutation race; RPL152 is recorded at the second
    thread's entry site.  ``op`` is ``"read"`` or ``"write"``.
    """
    if not active():
        yield
        return
    thread_id = threading.get_ident()
    held = held_locks()
    site = _site()
    entry = (thread_id, held, op, site)
    conflicts = []
    with _STATE_LOCK:
        others = _REGIONS.setdefault(name, [])
        for other_id, other_held, other_op, other_site in others:
            if other_id == thread_id:
                continue
            if "write" not in (op, other_op):
                continue
            if held & other_held:
                continue  # a common lock serializes them
            conflicts.append(other_site)
        others.append(entry)
    for other_site in conflicts:
        _record(
            "RPL152",
            f"unsynchronized concurrent access to {name!r}: this thread "
            f"({op}, holding {sorted(held) or 'no locks'}) overlaps "
            f"another thread's access at {other_site[0]}:{other_site[1]} "
            "with no lock in common",
            site,
        )
    try:
        yield
    finally:
        with _STATE_LOCK:
            entries = _REGIONS.get(name, [])
            if entry in entries:
                entries.remove(entry)


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

