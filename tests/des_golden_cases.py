"""Golden-measurement matrix for the DES byte-identity gate.

The cases below pin the discrete-event backend's exact output across a
scenario × seed × time_scale matrix.  The fixture file
(``tests/fixtures/des_golden.json``) was generated from the *pre-fast-path*
seed backend, so any kernel or RNG optimization that changes a single
event ordering or random draw shows up as a byte-level mismatch.

Floats are stored as ``float.hex()`` strings: JSON round-trips of decimal
reprs can lose the last bit, and "byte-identical" means exactly that.

Regenerate only when a deliberate behaviour change is being made (the
new fixture then pins the changed simulator, so review its diff)::

    PYTHONPATH=src python -m tests.des_golden_cases

"""

from __future__ import annotations

import json
import pathlib

from repro.cluster.topology import ClusterSpec
from repro.model.base import Measurement, Scenario
from repro.tpcw.interactions import BROWSING_MIX, ORDERING_MIX, SHOPPING_MIX

__all__ = [
    "CASES",
    "SEEDS",
    "TIME_SCALES",
    "FIXTURE_PATH",
    "build_case",
    "measurement_to_jsonable",
    "generate_fixture",
]

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "des_golden.json"

#: Seeds and time scales of the matrix (3 scenarios x 3 seeds x 2 scales
#: is the floor; five scenarios are pinned).
SEEDS = (3, 11, 29)
TIME_SCALES = (0.02, 0.05)


def _shopping_small():
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=SHOPPING_MIX, population=120)
    return scenario, cluster.default_configuration(), {}


def _browsing_nav():
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=BROWSING_MIX, population=80)
    return scenario, cluster.default_configuration(), {"navigation": True}


def _ordering_lines():
    cluster = ClusterSpec.three_tier(2, 2, 2)
    lines = {k: tuple(v) for k, v in cluster.work_lines(2).items()}
    scenario = Scenario(
        cluster=cluster, mix=ORDERING_MIX, population=120, work_lines=lines
    )
    return scenario, cluster.default_configuration(), {}


def _ordering_starved():
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=ORDERING_MIX, population=250)
    config = cluster.default_configuration().replace(**{
        "app0.maxProcessors": 5,
        "app0.AJPmaxProcessors": 5,
        "app0.acceptCount": 5,
        "app0.AJPacceptCount": 5,
    })
    return scenario, config, {}


def _ordering_rejecting():
    # Two HTTP/AJP threads and one backlog slot each: the app tier
    # rejects requests, so pages fail.  The proxy's disk cache admits
    # only objects of 512 KB and up, so images miss, reach the app tier
    # and are lost there too.
    cluster = ClusterSpec.three_tier(1, 1, 1)
    scenario = Scenario(cluster=cluster, mix=ORDERING_MIX, population=250)
    config = cluster.default_configuration().replace(**{
        "app0.maxProcessors": 2,
        "app0.AJPmaxProcessors": 2,
        "app0.acceptCount": 1,
        "app0.AJPacceptCount": 1,
        "proxy0.minimum_object_size": 512,
    })
    return scenario, config, {}


#: name -> builder returning (scenario, configuration, backend kwargs).
CASES = {
    "shopping-111": _shopping_small,
    "browsing-111-nav": _browsing_nav,
    "ordering-222-lines": _ordering_lines,
    "ordering-111-starved": _ordering_starved,
    "ordering-111-rejecting": _ordering_rejecting,
}


def build_case(name: str):
    """Instantiate one named case: (scenario, configuration, kwargs)."""
    return CASES[name]()


def _hex(value: float) -> str:
    return float(value).hex()


def measurement_to_jsonable(m: Measurement) -> dict:
    """A byte-exact JSON form of a measurement (floats as hex strings)."""
    return {
        "wips": _hex(m.wips),
        "raw_wips": _hex(m.raw_wips),
        "error_rate": _hex(m.error_rate),
        "response_time": _hex(m.response_time),
        "utilization": {
            node: {k: _hex(v) for k, v in sorted(u.as_dict().items())}
            for node, u in sorted(m.utilization.items())
        },
        "diagnostics": {
            k: _hex(v) for k, v in sorted(m.diagnostics.items())
        },
        "per_line_wips": {
            k: _hex(v) for k, v in sorted(m.per_line_wips.items())
        },
    }


def generate_fixture() -> dict:
    """Run the full matrix on the current backend and return the payload."""
    from repro.des.backend import SimulationBackend

    cases = []
    for name in sorted(CASES):
        scenario, config, kwargs = build_case(name)
        for time_scale in TIME_SCALES:
            backend = SimulationBackend(time_scale=time_scale, **kwargs)
            for seed in SEEDS:
                m = backend.measure(scenario, config, seed=seed)
                cases.append(
                    {
                        "scenario": name,
                        "seed": seed,
                        "time_scale": time_scale,
                        "measurement": measurement_to_jsonable(m),
                    }
                )
    return {"schema": "des_golden/v1", "cases": cases}


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    payload = generate_fixture()
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {FIXTURE_PATH} ({len(payload['cases'])} cases)")
