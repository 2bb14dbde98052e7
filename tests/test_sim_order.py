"""Kernel dispatch order: seeded process scripts vs. recorded kernels.

``tests/fixtures/sim_order.json`` holds the resume logs that the
heap-only kernel produced for the scripts in ``tests/sim_order_cases.py``
(zero and clock-absorbed delays, grants, hand-overs and rejections,
requests yielded late, watched, paired or abandoned, signals, children,
interrupts, callbacks, ``step()`` and ``run(until=...)``).  Every entry
must still be dispatched in the same ``(at, seq)`` order, so every log
must match line for line.  Waiting on a fan-out of children through
one :class:`~repro.sim.process.Join` must leave every log unchanged too.

The serve cases add servers held for a service time drawn at the
grant; their logs were recorded with the three-step spelling (acquire,
yield the request, yield the drawn delay, release) before
:meth:`~repro.sim.resources.Resource.hold` existed.  Both that spelling
and one ``yield res.hold(rng, mean, 1.0)`` must reproduce them line for
line, interrupts of queued, granted and serving processes included.
"""

import json

import pytest

from tests.sim_order_cases import (
    CASES,
    FIXTURE_PATH,
    SERVE_CASES,
    Script,
    run_case,
)

with FIXTURE_PATH.open() as fh:
    _FIXTURE = json.load(fh)

_EXPECTED = {
    (c["seed"], float.fromhex(c["t0"])): c["log"] for c in _FIXTURE["cases"]
}
_EXPECTED_SERVE = {
    (c["seed"], float.fromhex(c["t0"])): c["log"]
    for c in _FIXTURE["serve_cases"]
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


def test_serve_fixture_covers_every_case():
    assert set(_EXPECTED_SERVE) == set(SERVE_CASES)
    lines = [line for log in _EXPECTED_SERVE.values() for line in log]
    for what in ("held-u1", "held-u2", "granted-u1", "granted-u2",
                 "grab-cancelled-u", "interrupted", "joined"):
        assert any(f" {what}" in line for line in lines), what
    # Interrupts find serves in each state a hold can be in.
    found = {"queued": 0, "granted": 0, "serving": 0}
    for seed, t0 in SERVE_CASES:
        script = Script(seed, t0, spelling="acquire")
        script.run()
        for state, count in script.serve_interrupts.items():
            found[state] += count
    assert all(found.values()), found


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


@pytest.mark.parametrize("join", [False, True], ids=["wait", "join"])
@pytest.mark.parametrize("spelling", ["acquire", "hold"])
@pytest.mark.parametrize(
    "seed,t0", SERVE_CASES, ids=[f"seed{s}-t{t0:g}" for s, t0 in SERVE_CASES]
)
def test_serve_order_matches_recorded_kernel(seed, t0, spelling, join):
    log = run_case(seed, t0, join=join, spelling=spelling)
    assert log == _EXPECTED_SERVE[(seed, t0)]
