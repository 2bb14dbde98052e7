"""Tests for parameter duplication and partitioning schemes."""

import pytest

from repro.harmony.parameter import Configuration, IntParameter, ParameterSpace
from repro.harmony.scaling import (
    DuplicationScheme,
    PartitionScheme,
    TuningGroup,
    TuningScheme,
    identity_scheme,
)


def _full_space():
    """Two proxies and one app node, two parameters each."""
    params = []
    for node in ("p0", "p1", "a0"):
        params.append(IntParameter(f"{node}.size", 8, 4, 64))
        params.append(IntParameter(f"{node}.threads", 5, 1, 50))
    return ParameterSpace(params)


class TestIdentityScheme:
    def test_single_group_covers_all(self):
        space = _full_space()
        scheme = identity_scheme(space)
        assert len(scheme.groups) == 1
        assert scheme.groups[0].space.names == space.names
        assert scheme.total_tuned_dimensions == 6

    def test_combine_round_trip(self):
        space = _full_space()
        scheme = identity_scheme(space)
        cfg = space.default_configuration()
        combined = scheme.combine({"all": cfg})
        assert combined == cfg


class TestSchemeValidation:
    def test_uncovered_parameter_rejected(self):
        space = _full_space()
        group = TuningGroup(
            "g", space.subspace(["p0.size"]), {"p0.size": ("p0.size",)}
        )
        with pytest.raises(ValueError, match="not covered"):
            TuningScheme(space, [group])

    def test_double_covered_parameter_rejected(self):
        space = _full_space()
        g1 = TuningGroup("g1", space.subspace(["p0.size"]), {"p0.size": ("p0.size",)})
        with pytest.raises(ValueError, match="covered by both"):
            TuningScheme(space, [g1, g1] if False else [
                g1,
                TuningGroup(
                    "g2",
                    ParameterSpace(list(space.subspace(
                        [n for n in space.names if n != "p0.size"]).parameters)
                        + [IntParameter("alias", 8, 4, 64)]),
                    {**{n: (n,) for n in space.names if n != "p0.size"},
                     "alias": ("p0.size",)},
                ),
            ])

    def test_unknown_expansion_target_rejected(self):
        space = _full_space()
        group = TuningGroup(
            "g", space.subspace(["p0.size"]), {"p0.size": ("zzz.size",)}
        )
        with pytest.raises(ValueError, match="unknown"):
            TuningScheme(space, [group])

    def test_group_missing_expansion_rejected(self):
        space = _full_space()
        with pytest.raises(ValueError, match="no expansion"):
            TuningGroup("g", space.subspace(["p0.size"]), {})

    def test_combine_missing_fragment_rejected(self):
        scheme = identity_scheme(_full_space())
        with pytest.raises(KeyError):
            scheme.combine({})


class TestDuplicationScheme:
    def test_tier_level_space(self):
        scheme = DuplicationScheme(
            _full_space(), {"proxy": ["p0", "p1"], "app": ["a0"]}
        )
        group = scheme.groups[0]
        assert sorted(group.space.names) == [
            "app.size", "app.threads", "proxy.size", "proxy.threads",
        ]
        assert scheme.total_tuned_dimensions == 4

    def test_values_duplicated_within_tier(self):
        scheme = DuplicationScheme(
            _full_space(), {"proxy": ["p0", "p1"], "app": ["a0"]}
        )
        fragment = Configuration(
            {"proxy.size": 32, "proxy.threads": 9, "app.size": 16, "app.threads": 3}
        )
        full = scheme.combine({"duplication": fragment})
        assert full["p0.size"] == 32
        assert full["p1.size"] == 32
        assert full["p0.threads"] == 9
        assert full["p1.threads"] == 9
        assert full["a0.size"] == 16

    def test_node_in_two_tiers_rejected(self):
        with pytest.raises(ValueError, match="more than one tier"):
            DuplicationScheme(
                _full_space(), {"proxy": ["p0", "p1"], "app": ["p0", "a0"]}
            )

    def test_unassigned_node_rejected(self):
        with pytest.raises(ValueError, match="not assigned"):
            DuplicationScheme(_full_space(), {"proxy": ["p0", "p1"]})

    def test_empty_tier_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            DuplicationScheme(
                _full_space(), {"proxy": ["p0", "p1", "a0"], "app": []}
            )

    def test_heterogeneous_tier_rejected(self):
        params = [
            IntParameter("p0.size", 8, 4, 64),
            IntParameter("p1.other", 1, 0, 2),
            IntParameter("a0.size", 8, 4, 64),
        ]
        with pytest.raises(ValueError, match="homogeneous"):
            DuplicationScheme(
                ParameterSpace(params), {"proxy": ["p0", "p1"], "app": ["a0"]}
            )

    @pytest.mark.parametrize(
        "bounds",
        [
            {"low": 2, "high": 64, "step": 1},
            {"low": 4, "high": 32, "step": 1},
            {"low": 4, "high": 64, "step": 2},
        ],
        ids=["low", "high", "step"],
    )
    def test_member_with_other_bounds_rejected(self, bounds):
        params = [
            IntParameter("p0.size", 8, 4, 64),
            IntParameter("p1.size", 8, **bounds),
            IntParameter("a0.size", 8, 4, 64),
        ]
        with pytest.raises(ValueError, match="homogeneous") as err:
            DuplicationScheme(
                ParameterSpace(params), {"proxy": ["p0", "p1"], "app": ["a0"]}
            )
        assert "'p1.size'" in str(err.value)


class TestPartitionScheme:
    def _space4(self):
        params = []
        for node in ("p0", "p1", "a0", "a1"):
            params.append(IntParameter(f"{node}.size", 8, 4, 64))
        return ParameterSpace(params)

    def test_one_group_per_line(self):
        scheme = PartitionScheme(
            self._space4(), {"line0": ["p0", "a0"], "line1": ["p1", "a1"]}
        )
        assert len(scheme.groups) == 2
        ids = sorted(g.group_id for g in scheme.groups)
        assert ids == ["line0", "line1"]
        assert scheme.max_group_dimension == 2

    def test_combine_merges_lines(self):
        scheme = PartitionScheme(
            self._space4(), {"line0": ["p0", "a0"], "line1": ["p1", "a1"]}
        )
        full = scheme.combine(
            {
                "line0": Configuration({"p0.size": 10, "a0.size": 20}),
                "line1": Configuration({"p1.size": 30, "a1.size": 40}),
            }
        )
        assert dict(full) == {
            "p0.size": 10, "a0.size": 20, "p1.size": 30, "a1.size": 40,
        }

    def test_node_in_two_lines_rejected(self):
        with pytest.raises(ValueError, match="more than one work line"):
            PartitionScheme(
                self._space4(),
                {"line0": ["p0", "a0"], "line1": ["p0", "p1", "a1"]},
            )

    def test_unassigned_node_rejected(self):
        with pytest.raises(ValueError, match="not assigned"):
            PartitionScheme(self._space4(), {"line0": ["p0", "a0"]})
