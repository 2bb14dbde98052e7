"""Shared pytest configuration.

The CI sanitize job runs the parallel/shared-engine suites with
``REPRO_SANITIZE=1``, which makes every memo absorb run the RPL153
coherence check while the ordinary tests drive the fleet.  Any finding
still recorded when the session ends is a real determinism bug (a key
that does not determine its value): tests that *inject* violations on
purpose do so inside ``sanitizer.scope()``, whose findings never reach
the process-wide list.  The gate below turns leftovers into a session
failure.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _sanitizer_session_gate():
    yield
    if os.environ.get("REPRO_SANITIZE", "") in ("", "0"):
        return
    from repro.lint.sanitizer import findings

    leftovers = findings()
    assert not leftovers, (
        "runtime sanitizer recorded findings during the test session:\n"
        + "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in leftovers
        )
    )
