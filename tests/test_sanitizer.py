"""Unit tests for the runtime concurrency sanitizer (RPL151–RPL153).

Every deliberate violation is injected inside ``sanitizer.scope()``,
which force-activates the sanitizer with isolated state — so these
tests run identically with and without ``REPRO_SANITIZE=1`` in the
environment, and never contaminate the session-wide findings the
conftest gate checks at exit.

The storms are deterministic: thread overlap is forced with barriers
and lock-handoff (never sleeps), so a detection here is a guarantee,
not a probability.
"""

from __future__ import annotations

import threading

from repro.lint import sanitizer as san
from repro.model.base import ContentMemo, MeasurementCache


def rules_of(captured):
    return [f.rule for f in captured]


# ----------------------------------------------------------------------
# Activation and wrapping
# ----------------------------------------------------------------------
def test_wrap_lock_is_passthrough_when_inactive(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    inner = threading.Lock()
    assert not san.active()
    assert san.wrap_lock("x", inner) is inner
    # The hooks are no-ops on raw locks and when inactive.
    san.expect_held(inner, "whatever")
    san.check_coherent("kind", "key", 1, 2)
    assert san.findings() == []


def test_env_zero_means_inactive(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not san.active()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert san.active()


def test_wrap_lock_tracks_when_active():
    with san.scope() as captured:
        lock = san.wrap_lock("x", threading.Lock())
        assert isinstance(lock, san.TrackedLock)
        with lock:
            assert "x" in san.held_locks()
        assert "x" not in san.held_locks()
    assert captured == []


def test_scope_isolates_injected_findings():
    with san.scope() as captured:
        san.check_coherent("kind", "key", 1, 2)
    assert rules_of(captured) == ["RPL153"]
    # Nothing leaked into the process-wide list.
    assert all(f.rule != "RPL153" for f in san.findings())


# ----------------------------------------------------------------------
# RPL151 — lock-order inversion
# ----------------------------------------------------------------------
def _run_in_thread(fn):
    error = []

    def target():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            error.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "worker thread hung"
    assert not error, f"worker thread raised {error[0]!r}"


def test_lock_order_inversion_is_detected():
    with san.scope() as captured:
        a = san.TrackedLock("lock.a", threading.Lock())
        b = san.TrackedLock("lock.b", threading.Lock())

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        _run_in_thread(forward)
        _run_in_thread(backward)
    assert "RPL151" in rules_of(captured)
    message = next(f for f in captured if f.rule == "RPL151").message
    assert "lock.a" in message and "lock.b" in message
    assert all(f.phase == "runtime" for f in captured)


def test_consistent_lock_order_is_clean():
    with san.scope() as captured:
        a = san.TrackedLock("lock.a", threading.Lock())
        b = san.TrackedLock("lock.b", threading.Lock())

        def forward():
            with a:
                with b:
                    pass

        _run_in_thread(forward)
        _run_in_thread(forward)
    assert captured == []


def test_reentrant_rlock_does_not_self_invert():
    with san.scope() as captured:
        lock = san.TrackedLock("lock.r", threading.RLock())
        with lock:
            with lock:
                assert "lock.r" in san.held_locks()
        assert "lock.r" not in san.held_locks()
    assert captured == []


# ----------------------------------------------------------------------
# RPL152 — unsynchronized mutation
# ----------------------------------------------------------------------
def test_expect_held_reports_unheld_lock():
    with san.scope() as captured:
        lock = san.TrackedLock("guard", threading.Lock())
        san.expect_held(lock, "L1 insert")
        with lock:
            san.expect_held(lock, "L1 insert")  # held: clean
    assert rules_of(captured) == ["RPL152"]
    assert "guard" in captured[0].message


def test_monitored_region_storm_detects_unsynchronized_writers():
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    with san.scope() as captured:

        def storm():
            with san.monitored_region("shared-table", op="write"):
                barrier.wait()  # all workers provably inside at once

        threads = [threading.Thread(target=storm) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    assert "RPL152" in rules_of(captured)


def test_monitored_region_readers_only_is_clean():
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    with san.scope() as captured:

        def storm():
            with san.monitored_region("shared-table", op="read"):
                barrier.wait()

        threads = [threading.Thread(target=storm) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert captured == []


# ----------------------------------------------------------------------
# RPL153 — cache coherence
# ----------------------------------------------------------------------
def test_check_coherent_flags_divergence_only():
    with san.scope() as captured:
        san.check_coherent("memo", ("k",), 1, 1)  # identical: clean
        san.check_coherent("memo", ("k",), None, 1)  # first write: clean
        san.check_coherent("memo", ("k",), 1, 2)  # divergent
    assert rules_of(captured) == ["RPL153"]
    assert "memo" in captured[0].message


def test_divergent_absorb_reports():
    with san.scope() as captured:
        memo = ContentMemo(8, "sol")
        memo.put(("k",), 41)
        memo.absorb([(("k",), 41)])  # the same value from elsewhere: clean
        memo.absorb([(("k",), 42)])  # same key, new value
    assert rules_of(captured) == ["RPL153"]
    assert "sol absorb" in captured[0].message


# ----------------------------------------------------------------------
# TrackedLock as a Condition lock
# ----------------------------------------------------------------------
def test_condition_wait_releases_and_reacquires_tracked_lock():
    with san.scope() as captured:
        lock = san.TrackedLock("cond.lock", threading.RLock())
        cond = threading.Condition(lock)
        helper_held = []

        def notifier():
            # Blocks until the main thread's wait() releases the lock —
            # a deterministic handoff, no sleeps involved.
            with cond:
                helper_held.append("cond.lock" in san.held_locks())
                cond.notify()

        with cond:
            assert "cond.lock" in san.held_locks()
            thread = threading.Thread(target=notifier)
            thread.start()
            notified = cond.wait(timeout=30)
            # Reacquired on wakeup: the held stack reflects it again.
            assert "cond.lock" in san.held_locks()
        thread.join(timeout=30)
        assert notified
        assert helper_held == [True]
    assert captured == []


# ----------------------------------------------------------------------
# Shared-cache integration hooks
# ----------------------------------------------------------------------
def test_measurement_cache_insert_requires_lock():
    with san.scope() as captured:
        cache = MeasurementCache()
        cache._insert(("k",), object())  # bypasses the lock: violation
        with cache._lock:
            cache._insert(("k2",), object())  # disciplined path: clean
    assert rules_of(captured) == ["RPL152"]


def test_clean_absorb_traffic_has_no_findings():
    with san.scope() as captured:
        memo = ContentMemo(None, "sol")
        assert memo.absorb([((i,), i * i) for i in range(8)]) == 8
        for i in range(8):
            assert memo.get((i,)) == i * i
        # The same entries again, as a second worker would ship them.
        assert memo.absorb([((i,), i * i) for i in range(8)]) == 0
    assert captured == []


# ----------------------------------------------------------------------
# Finding plumbing
# ----------------------------------------------------------------------
def test_take_findings_drains_and_absorb_dedups():
    with san.scope() as captured:
        san.check_coherent("memo", ("k",), 1, 2)
        shipped = san.take_findings()
        assert rules_of(shipped) == ["RPL153"]
        assert san.findings() == []
        san.absorb(shipped)
        san.absorb(shipped)  # duplicate delivery collapses
        assert len(san.findings()) == 1
    assert rules_of(captured) == ["RPL153"]


def test_runtime_findings_carry_phase_in_schema():
    with san.scope() as captured:
        san.check_coherent("memo", ("k",), 1, 2)
    payload = captured[0].to_dict()
    assert payload["phase"] == "runtime"
    assert payload["rule"] in san.RUNTIME_RULES
