"""Unit tests for the runtime coherence sanitizer (RPL153).

Every deliberate violation is injected inside ``sanitizer.scope()``,
which force-activates the sanitizer with isolated state — so these
tests run identically with and without ``REPRO_SANITIZE=1`` in the
environment, and never contaminate the session-wide findings the
conftest gate checks at exit.
"""

from __future__ import annotations

from repro.lint import sanitizer as san
from repro.model.base import ContentMemo


def rules_of(captured):
    return [f.rule for f in captured]


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def test_check_coherent_is_a_noop_when_inactive(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not san.active()
    san.check_coherent("kind", "key", 1, 2)
    assert san.findings() == []


def test_env_zero_means_inactive(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not san.active()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert san.active()


def test_scope_isolates_injected_findings():
    with san.scope() as captured:
        san.check_coherent("kind", "key", 1, 2)
    assert rules_of(captured) == ["RPL153"]
    # Nothing leaked into the process-wide list.
    assert all(f.rule != "RPL153" for f in san.findings())


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
def test_runtime_findings_carry_phase_in_schema():
    with san.scope() as captured:
        san.check_coherent("memo", ("k",), 1, 2)
    payload = captured[0].to_dict()
    assert payload["phase"] == "runtime"
    assert payload["rule"] in san.RUNTIME_RULES
