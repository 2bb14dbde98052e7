"""Facts derived once per configuration stay equal to their direct forms.

``Configuration`` caches its sorted items and per-node slices, and
``ParameterSpace`` checks bounds over arrays.  Each test here pins the
fast form to the plain computation it replaced: the per-parameter loops
for ``validate``/``extremeness`` (bit for bit, same messages), the
literal ``tuple(sorted(...))``/``repr(sorted(...))`` cache keys and
journal digest, the per-node split of ``aggregation_plan`` and
``ClusterSpec.node_config``, the union-built full space, and a plain
``Configuration`` of what ``DuplicationScheme.combine`` builds (facts,
plans and errors alike).  It also checks that a pickled configuration
hashes like a fresh one in another interpreter.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeSpec, Role
from repro.cluster.params import params_for_role
from repro.cluster.topology import ClusterSpec, NodePlacement
from repro.durability.journal import JournaledRunner
from repro.harmony.parameter import Configuration, IntParameter, ParameterSpace
from repro.harmony.scaling import DuplicationScheme, TuningGroup
from repro.model.analytic import AnalyticBackend
from repro.model.base import MeasurementCache, Scenario
from repro.model.hierarchy import aggregation_plan
from repro.tpcw.interactions import STANDARD_MIXES

from tests.test_property_harmony import parameter_spaces

SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- the per-parameter forms the fast paths must reproduce -----------------
def loop_extremeness(space: ParameterSpace, config) -> float:
    return float(np.mean([p.extremeness(config[p.name]) for p in space.parameters]))


def loop_validate(space: ParameterSpace, config) -> None:
    names = set(space.names)
    missing = names - set(config)
    extra = set(config) - names
    if missing or extra:
        raise ValueError(
            f"configuration mismatch: missing={sorted(missing)}, "
            f"extra={sorted(extra)}"
        )
    for p in space.parameters:
        if not p.is_legal(config[p.name]):
            raise ValueError(
                f"{p.name}={config[p.name]} is not legal "
                f"(range [{p.low}, {p.high}], step {p.step})"
            )


def outcome(check, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return ("ok", check(*args))
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def assert_same_extremeness(space, config):
    fast = outcome(space.extremeness, config)
    slow = outcome(loop_extremeness, space, config)
    if fast[0] == "ok" and slow[0] == "ok":
        assert fast[1].hex() == slow[1].hex()
    else:
        assert fast == slow


def assert_same_validate(space, config):
    assert outcome(space.validate, config) == outcome(loop_validate, space, config)


# -- value strategies ------------------------------------------------------
def values_for(param: IntParameter):
    """Legal, off-grid, out-of-range, fractional and odd-typed values."""
    legal = st.integers(0, param.num_values - 1).map(
        lambda k: param.low + k * param.step
    )
    return st.one_of(
        legal,
        legal.map(float),
        legal.map(lambda v: v + 1),
        legal.map(lambda v: v + 0.5),
        st.integers(param.low - 1000, param.low - 1),
        st.integers(param.high + 1, param.high + 1000),
        st.sampled_from([True, False, 2**70, -(2**70), 2**53, "5"]),
    )


@st.composite
def spaces_with_values(draw):
    space = draw(parameter_spaces(max_dim=6))
    values = {p.name: draw(values_for(p)) for p in space.parameters}
    return space, values


class TestVectorisedChecks:
    @settings(max_examples=300, deadline=None)
    @given(spaces_with_values())
    def test_extremeness_matches_loop_bit_for_bit(self, case):
        space, values = case
        assert_same_extremeness(space, values)
        assert_same_extremeness(space, Configuration(values))

    @settings(max_examples=300, deadline=None)
    @given(spaces_with_values())
    def test_validate_matches_loop(self, case):
        space, values = case
        assert_same_validate(space, values)
        assert_same_validate(space, Configuration(values))

    def test_zero_span_parameters(self):
        space = ParameterSpace(
            [
                IntParameter("flat", default=7, low=7, high=7),
                IntParameter("wide", default=10, low=0, high=100, step=5),
            ]
        )
        for flat in (7, 8, -3):
            for wide in (0, 5, 100, 103, 250):
                config = {"flat": flat, "wide": wide}
                assert_same_extremeness(space, config)
                assert_same_validate(space, config)

    def test_bounds_too_large_for_float64(self):
        space = ParameterSpace(
            [
                IntParameter("huge", default=0, low=0, high=2**60, step=3),
                IntParameter("small", default=1, low=0, high=4),
            ]
        )
        for huge in (0, 3, 2**60 - 1, 2**60 + 2, 2**53 + 1, -3):
            config = {"huge": huge, "small": 2}
            assert_same_extremeness(space, config)
            assert_same_validate(space, config)

    def test_wide_full_space(self):
        space = ClusterSpec.wide().full_space()
        rng = np.random.default_rng(7)
        configs = [space.default_configuration(), space.random_configuration(rng)]
        for p in space.parameters[::97]:
            configs.append(configs[1].replace(**{p.name: p.high + 3 * p.step}))
            configs.append(configs[1].replace(**{p.name: p.low - 1}))
        for config in configs:
            assert_same_extremeness(space, config)
            assert_same_validate(space, config)

    @pytest.mark.parametrize(
        "update",
        [
            {},
            {"app0.bufferSize": 2048 + 64},  # off the 128 grid
            {"db0.thread_con": 129},  # above the range
            {"app0.AJPacceptCount": 10.5},  # would pass an int64 cast
            {"app0.AJPacceptCount": 10.0},  # integral float: legal
            {"app0.acceptCount": True},  # bool is an int below the range
            {"proxy0.cache_mem": 2**70},
            {"proxy0.cache_mem": "8"},
            {"proxy0.cache_mem": float("nan")},
        ],
    )
    def test_validate_cases(self, update):
        space = ClusterSpec.three_tier(2, 2, 1).full_space()
        config = {**space.default_configuration(), **update}
        assert_same_validate(space, config)
        assert_same_validate(space, Configuration(config))
        if update.get("app0.AJPacceptCount") == 10.5:
            with pytest.raises(ValueError, match="AJPacceptCount=10.5"):
                space.validate(config)

    def test_validate_key_mismatch(self):
        space = ClusterSpec.three_tier().full_space()
        default = dict(space.default_configuration())
        missing = dict(default)
        del missing["db0.table_cache"]
        extra = {**default, "db0.bogus": 1}
        for config in (missing, extra, {}):
            assert_same_validate(space, config)
            assert_same_validate(space, Configuration(config))


# -- configuration facts ---------------------------------------------------
def reversed_dict(config) -> dict:
    """An equal plain dict built in a different insertion order."""
    return dict(reversed(list(config.items())))


class TestConfigurationFacts:
    def test_dict_speed_views_match_the_mapping(self):
        values = {"b.y": 2, "a.x": 1, "free": 3}
        config = Configuration(values)
        assert list(config.items()) == list(values.items())
        assert list(config.keys()) == list(values)
        assert list(config.values()) == list(values.values())
        assert config.get("a.x") == 1 and config.get("zz") is None
        assert config.get("zz", 9) == 9
        assert "free" in config and "zz" not in config
        assert config.sorted_items() == tuple(sorted(values.items()))

    def test_node_slices(self):
        config = Configuration({"n1.b": 2, "n1.a": 1, "n2.a": 1, "n2.b": 2, "free": 0})
        slices = config.node_slices()
        assert dict(slices) == {"n1": (("a", 1), ("b", 2)), "n2": (("a", 1), ("b", 2))}
        assert slices["n1"] is slices["n2"]  # equal slices are shared
        assert config.node_slices() is slices  # built once

    def test_coerce(self):
        config = Configuration({"a.x": 1})
        assert Configuration.coerce(config) is config
        assert Configuration.coerce({"a.x": 1}) == config


SESSION_SCRIPT = """
import pickle, sys
from repro.harmony.parameter import Configuration
values = {f"app{i}.acceptCount": 10 + i for i in range(5)}
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(Configuration(values)))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    fresh = Configuration(values)
    assert loaded == fresh
    assert hash(loaded) == hash(fresh)
    assert fresh in {loaded}
    print("ok")
"""

#: A configuration pickled before ``Configuration.__reduce__`` existed,
#: under PYTHONHASHSEED=1: its slot state carries that interpreter's hash.
LEGACY_PICKLE = (
    b"\x80\x04\x95\x82\x00\x00\x00\x00\x00\x00\x00\x8c\x17repro.harmony.parameter"
    b"\x94\x8c\rConfiguration\x94\x93\x94)\x81\x94N}\x94(\x8c\x07_values\x94}\x94("
    b"\x8c\x10app0.acceptCount\x94K\n\x8c\x10proxy0.cache_mem\x94K\x08u\x8c\x05_hash"
    b"\x94\x8a\x08oP\x06\xb4\xffP^\xdau\x86\x94b."
)


def run_with_hash_seed(seed: str, *args, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", SESSION_SCRIPT, *args],
        input=stdin,
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return done.stdout


class TestPickling:
    def test_loaded_configuration_hashes_like_a_fresh_one(self):
        blob = run_with_hash_seed("1", "dump")
        assert run_with_hash_seed("2", "load", stdin=blob).strip() == b"ok"

    def test_pickle_carries_values_only(self):
        config = Configuration({"n1.a": 1, "n2.a": 1})
        config.node_slices()
        blob = pickle.dumps(config)
        assert b"_hash" not in blob and b"_slices" not in blob
        loaded = pickle.loads(blob)
        assert loaded == config and hash(loaded) == hash(config)
        assert loaded.sorted_items() == config.sorted_items()

    def test_legacy_pickle_rehashes(self):
        loaded = pickle.loads(LEGACY_PICKLE)
        fresh = Configuration({"app0.acceptCount": 10, "proxy0.cache_mem": 8})
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert fresh in {loaded}
        assert loaded.node_slices()["app0"] == (("acceptCount", 10),)


# -- keys, digests, plans and node slices ----------------------------------
def head_plan(cluster: ClusterSpec, configuration) -> tuple:
    """The grouping as first written: a sorted re-split and ``astuple``."""
    per_node: dict = {}
    for name, value in sorted(configuration.items()):
        node_id, dot, param = name.partition(".")
        if dot:
            per_node.setdefault(node_id, []).append((param, value))
    groups: dict = {}
    for p in cluster.placements:
        key = (p.role.value, astuple(p.spec), tuple(per_node.get(p.node_id, ())))
        groups.setdefault(key, []).append(p.node_id)
    return tuple((members[0], tuple(members)) for members in groups.values())


FAST = NodeSpec(cpu_speed=2.0)


def mixed_cluster() -> ClusterSpec:
    """A 1/3/1 cluster whose app tier carries two hardware specs."""
    return ClusterSpec(
        [
            NodePlacement("proxy0", Role.PROXY),
            NodePlacement("app0", Role.APP),
            NodePlacement("app1", Role.APP, FAST),
            NodePlacement("app2", Role.APP),
            NodePlacement("db0", Role.DB),
        ]
    )


@pytest.fixture(scope="module")
def wide_case():
    cluster = ClusterSpec.wide(4, 6, 2)
    scenario = Scenario(
        cluster=cluster, mix=STANDARD_MIXES["shopping"], population=500
    )
    rng = np.random.default_rng(3)
    config = cluster.full_space().random_configuration(rng)
    scheme = DuplicationScheme(cluster.full_space(), cluster.tiers())
    (group,) = scheme.groups
    duplicated = scheme.combine({"duplication": group.space.random_configuration(rng)})
    return cluster, scenario, [config, duplicated, cluster.default_configuration()]


class TestKeyIdentity:
    def test_measurement_cache_key(self, wide_case):
        _, scenario, configs = wide_case
        for config in configs:
            literal = (scenario.fingerprint(), tuple(sorted(config.items())), 5)
            plain = reversed_dict(config)
            assert MeasurementCache.key(scenario, config, 5) == literal
            assert MeasurementCache.key(scenario, plain, 5) == literal
            assert MeasurementCache.key(scenario, plain, 5, ("t",)) == literal + (("t",),)

    def test_solution_key(self, wide_case):
        _, scenario, configs = wide_case
        backend = AnalyticBackend()
        tag = backend._mode_tag(scenario.cluster, scenario.population)
        for config in configs:
            literal = (scenario.fingerprint(), tuple(sorted(config.items()))) + tag
            assert backend._solution_key(scenario, config) == literal
            assert backend._solution_key(scenario, reversed_dict(config)) == literal

    def test_journal_digest(self, wide_case):
        _, _, configs = wide_case
        for config in configs:
            blob = repr(sorted(config.items())).encode("utf-8")
            literal = hashlib.sha256(blob).hexdigest()[:16]
            assert JournaledRunner._config_digest(config) == literal
            assert JournaledRunner._config_digest(reversed_dict(config)) == literal


class TestPlanIdentity:
    def test_aggregation_plan(self, wide_case):
        cluster, _, configs = wide_case
        for config in configs:
            plan = aggregation_plan(cluster, config)
            assert plan.groups == head_plan(cluster, config)
            assert aggregation_plan(cluster, reversed_dict(config)) == plan
        # The duplicated configuration collapses to one group per tier.
        assert len(aggregation_plan(cluster, configs[1]).groups) == 3

    def test_two_specs_split_a_tier(self):
        cluster = mixed_cluster()
        assert cluster.replica_groups() == {
            "proxy0": ["proxy0"],
            "app0": ["app0", "app2"],
            "app1": ["app1"],
            "db0": ["db0"],
        }
        config = cluster.default_configuration()
        plan = aggregation_plan(cluster, config)
        assert plan.groups == head_plan(cluster, config)
        assert dict(plan.groups)["app0"] == ("app0", "app2")
        assert dict(plan.groups)["app1"] == ("app1",)

    def test_node_config(self, wide_case):
        cluster, _, configs = wide_case
        for config in configs:
            for node_id in cluster.node_ids:
                prefix = f"{node_id}."
                literal = {
                    name[len(prefix):]: value
                    for name, value in config.items()
                    if name.startswith(prefix)
                }
                assert cluster.node_config(config, node_id) == literal
                assert cluster.node_config(reversed_dict(config), node_id) == literal

    def test_node_config_missing_parameter(self, wide_case):
        cluster, _, configs = wide_case
        plain = dict(configs[0])
        del plain["app1.acceptCount"]
        for config in (plain, Configuration(plain)):
            with pytest.raises(ValueError) as err:
                cluster.node_config(config, "app1")
            assert str(err.value) == (
                "configuration missing parameters for 'app1': ['acceptCount']"
            )
        with pytest.raises(KeyError, match="unknown node"):
            cluster.node_config(plain, "app99")


class TestPlanOrder:
    """Replica groups split by slice keep the per-placement plan's order."""

    def test_split_group_interleaves_with_other_specs(self):
        cluster = mixed_cluster()
        config = cluster.default_configuration().replace(**{"app2.acceptCount": 11})
        plan = aggregation_plan(cluster, config)
        assert plan.groups == head_plan(cluster, config)
        assert [rep for rep, _ in plan.groups] == [
            "proxy0", "app0", "app1", "app2", "db0",
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_roles_specs_and_slices(self, seed):
        rng = np.random.default_rng(seed)
        roles = list(Role) + list(rng.choice(list(Role), size=21))
        rng.shuffle(roles)
        cluster = ClusterSpec(
            [
                NodePlacement(f"n{i}", role, FAST if rng.random() < 0.3 else NodeSpec())
                for i, role in enumerate(roles)
            ]
        )
        space = cluster.full_space()
        default = space.default_configuration()
        for _ in range(4):
            # Each node keeps its default slice or takes one other value.
            moved = {
                name: default[name] + 1
                for name in space.names
                if name.endswith((".cache_mem", ".acceptCount", ".table_cache"))
                and rng.random() < 0.4
            }
            config = default.replace(**moved)
            assert aggregation_plan(cluster, config).groups == head_plan(cluster, config)


DUPLICATED_CLUSTERS = pytest.mark.parametrize(
    "cluster",
    [ClusterSpec.wide(4, 6, 2), mixed_cluster(), ClusterSpec.three_tier(1, 1, 1)],
    ids=["4x6x2", "mixed", "1x1x1"],
)


def duplicated(cluster: ClusterSpec, seed: int):
    """A duplication scheme of ``cluster``, its group and a random fragment."""
    scheme = DuplicationScheme(cluster.full_space(), cluster.tiers())
    (group,) = scheme.groups
    fragment = group.space.random_configuration(np.random.default_rng(seed))
    return scheme, group, fragment


def nested_expansion(group: TuningGroup, fragment) -> dict:
    """Every full name with its tuned value, tuned name by tuned name."""
    return {
        full: fragment[tuned]
        for tuned in group.space.names
        for full in group.expansion[tuned]
    }


class TestDuplicatedConfiguration:
    """A duplication combine builds what a plain ``Configuration`` would."""

    @DUPLICATED_CLUSTERS
    @pytest.mark.parametrize("seed", [5, 6])
    def test_facts_match_a_plain_configuration(self, cluster, seed):
        scheme, _, fragment = duplicated(cluster, seed)
        full = scheme.combine({"duplication": fragment})
        plain = Configuration(dict(full))
        assert full == plain
        assert list(full.items()) == list(plain.items())
        assert full.sorted_items() == plain.sorted_items()
        assert hash(full) == hash(plain)
        assert dict(full.node_slices()) == dict(plain.node_slices())
        plan = aggregation_plan(cluster, full)
        assert plan.groups == head_plan(cluster, full)
        assert plan == aggregation_plan(cluster, plain)
        for node_id in cluster.node_ids:
            assert cluster.node_config(full, node_id) == cluster.node_config(
                plain, node_id
            )
        loaded = pickle.loads(pickle.dumps(full))
        assert loaded == full and hash(loaded) == hash(full)
        assert loaded.sorted_items() == full.sorted_items()
        assert dict(loaded.node_slices()) == dict(full.node_slices())

    @DUPLICATED_CLUSTERS
    def test_default_fragment_gives_the_default_configuration(self, cluster):
        scheme, group, _ = duplicated(cluster, 0)
        full = scheme.combine({"duplication": group.space.default_configuration()})
        assert full.sorted_items() == cluster.default_configuration().sorted_items()

    @DUPLICATED_CLUSTERS
    @pytest.mark.parametrize(
        "bad",
        [
            lambda p: p.high + p.step,
            lambda p: p.low - 1,
            lambda p: p.low + 0.5,
            lambda p: "5",
        ],
        ids=["above", "below", "fraction", "string"],
    )
    def test_illegal_fragment_fails_like_the_full_check(self, cluster, bad):
        scheme, group, fragment = duplicated(cluster, 9)
        for param in group.space.parameters[::5]:
            values = {**fragment, param.name: bad(param)}
            expected = outcome(
                loop_validate, scheme.full_space, nested_expansion(group, values)
            )
            assert expected[0] != "ok"
            assert outcome(scheme.combine, {"duplication": values}) == expected

    def test_illegal_value_names_the_first_full_name(self):
        scheme, _, fragment = duplicated(ClusterSpec.wide(4, 6, 2), 9)
        values = {**fragment, "app.acceptCount": 10_000, "db.thread_con": 0}
        with pytest.raises(ValueError) as err:
            scheme.combine({"duplication": values})
        assert str(err.value) == (
            "app0.acceptCount=10000 is not legal (range [5, 1024], step 1)"
        )

    @DUPLICATED_CLUSTERS
    def test_missing_tuned_name_raises_key_error(self, cluster):
        scheme, group, fragment = duplicated(cluster, 4)
        for name in group.space.names[::4]:
            values = {k: v for k, v in fragment.items() if k != name}
            assert outcome(scheme.combine, {"duplication": values}) == (
                KeyError,
                repr(name),
            )
        assert outcome(scheme.combine, {}) == (
            KeyError,
            repr("missing fragment for group 'duplication'"),
        )


class TestSpaceAndExpansion:
    @pytest.mark.parametrize(
        "cluster",
        [ClusterSpec.three_tier(), ClusterSpec.wide(3, 5, 2), mixed_cluster()],
        ids=["1x1x1", "3x5x2", "mixed"],
    )
    def test_full_space_matches_union(self, cluster):
        union = None
        for p in cluster.placements:
            node = ParameterSpace(list(params_for_role(p.role))).prefixed(f"{p.node_id}.")
            union = node if union is None else union.union(node)
        assert cluster.full_space().parameters == union.parameters

    def test_expand_matches_nested_loop_in_full_name_order(self, wide_case):
        cluster = wide_case[0]
        scheme = DuplicationScheme(cluster.full_space(), cluster.tiers())
        (group,) = scheme.groups
        fragment = group.space.random_configuration(np.random.default_rng(11))
        nested = {}
        for tuned in group.space.names:
            for full in group.expansion[tuned]:
                nested[full] = fragment[tuned]
        expanded = group.expand(fragment)
        assert expanded == nested
        assert list(expanded) == sorted(nested)

    def test_expand_repeated_target_keeps_last_tuned_name(self):
        space = ParameterSpace(
            [IntParameter("a", 1, 0, 9), IntParameter("b", 2, 0, 9)]
        )
        group = TuningGroup("g", space, {"a": ("n.x",), "b": ("n.x", "n.y")})
        assert group.expand({"a": 1, "b": 2}) == {"n.x": 2, "n.y": 2}
