"""DES byte-identity gate: the simulator vs the seed-backend fixture.

``tests/fixtures/des_golden.json`` was generated from the *seed* backend
before the lean kernel and the (since deleted) block-sampled RNG landed;
its rejecting case was added later, generated by the heap-only kernel
before same-instant entries moved to a FIFO.  Every case must still
reproduce byte for byte (floats compared via ``float.hex()``).  A single
reordered event or extra random draw fails this suite.
"""

import json

import pytest

from repro.des.backend import SimulationBackend

from tests.des_golden_cases import (
    FIXTURE_PATH,
    build_case,
    measurement_to_jsonable,
)

with FIXTURE_PATH.open() as fh:
    _FIXTURE = json.load(fh)

_CASES = _FIXTURE["cases"]


def test_fixture_shape():
    assert _FIXTURE["schema"] == "des_golden/v1"
    # The issue's floor: >= 3 scenarios x 3 seeds x 2 time scales.
    assert len({c["scenario"] for c in _CASES}) >= 3
    assert len({c["seed"] for c in _CASES}) >= 3
    assert len({c["time_scale"] for c in _CASES}) >= 2
    # Rejections (QueueFullError delivery, lost images) are pinned too.
    assert any(
        float.fromhex(c["measurement"]["error_rate"]) > 0 for c in _CASES
    )


@pytest.mark.parametrize(
    "case",
    _CASES,
    # "-fast" names the lean event kernel, the one these case IDs have
    # always reported; keeping it keeps every case's ID stable.
    ids=[
        f"{c['scenario']}-s{c['seed']}-ts{c['time_scale']}-fast"
        for c in _CASES
    ],
)
def test_byte_identical_to_seed_backend(case):
    scenario, config, kwargs = build_case(case["scenario"])
    backend = SimulationBackend(time_scale=case["time_scale"], **kwargs)
    measurement = backend.measure(scenario, config, seed=case["seed"])
    assert measurement_to_jsonable(measurement) == case["measurement"]
