"""Kernel dispatch order: seeded process scripts vs. the heap-only kernel.

``tests/fixtures/sim_order.json`` holds the resume logs that the
heap-only kernel produced for the scripts in ``tests/sim_order_cases.py``
(zero and clock-absorbed delays, grants, hand-overs and rejections,
requests yielded late, watched, paired or abandoned, signals, children,
interrupts, callbacks, ``step()`` and ``run(until=...)``).  Every entry
must still be dispatched in the same ``(at, seq)`` order, so every log
must match line for line.  Waiting on a fan-out of children through
one :class:`~repro.sim.process.Join` must leave every log unchanged too.
"""

import json

import pytest

from tests.sim_order_cases import CASES, FIXTURE_PATH, run_case

with FIXTURE_PATH.open() as fh:
    _FIXTURE = json.load(fh)

_EXPECTED = {
    (c["seed"], float.fromhex(c["t0"])): c["log"] for c in _FIXTURE["cases"]
}


def test_fixture_covers_every_case():
    assert _FIXTURE["schema"] == "sim_order/v1"
    assert set(_EXPECTED) == set(CASES)
    lines = [line for log in _EXPECTED.values() for line in log]
    # The scripts reach every path the order depends on.
    for what in ("granted", "rejected", "late", "watched", "pair-granted",
                 "grab-released", "grab-cancelled", "interrupted",
                 "callback", "signal-failed", "child", "joined",
                 "left-child"):
        assert any(f" {what}" in line for line in lines), what


@pytest.mark.parametrize(
    "seed,t0", CASES, ids=[f"seed{s}-t{t0:g}" for s, t0 in CASES]
)
def test_resume_order_matches_heap_kernel(seed, t0):
    assert run_case(seed, t0) == _EXPECTED[(seed, t0)]


@pytest.mark.parametrize(
    "seed,t0", CASES, ids=[f"seed{s}-t{t0:g}" for s, t0 in CASES]
)
def test_join_resumes_where_waiting_in_turn_does(seed, t0):
    assert run_case(seed, t0, join=True) == _EXPECTED[(seed, t0)]
