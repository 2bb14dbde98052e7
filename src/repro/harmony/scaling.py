"""Scalable cluster tuning: parameter duplication and partitioning (§III.B).

Tuning *n* parameters with one simplex needs *n+1* initial configurations,
so tuning every parameter of every node in one space ("the default method")
scales poorly.  The paper proposes two remedies:

* **Parameter duplication** — tune one representative server per tier and
  copy ("duplicate") its values to every other server in the tier.  Valid
  when tier members are homogeneous and evenly loaded.
* **Parameter partitioning** — split the cluster into *work lines*, each
  containing at least one server from every tier, route each request through
  exactly one work line, and give each work line its own Harmony server fed
  by its own performance measurement.

Both are expressed here as :class:`TuningScheme` objects: a list of
:class:`TuningGroup`, each exposing the (smaller) space one tuning session
sees and an ``expand`` mapping back to full per-node parameter names.  Full
names follow the ``"<node>.<param>"`` convention of
:mod:`repro.cluster.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.harmony.constraints import ConstraintSet, OrderingConstraint
from repro.harmony.parameter import Configuration, IntParameter, ParameterSpace

__all__ = [
    "TuningGroup",
    "TuningScheme",
    "identity_scheme",
    "DuplicationScheme",
    "PartitionScheme",
]


def split_name(full_name: str) -> tuple[str, str]:
    """Split ``"node.param"`` into ``(node, param)``."""
    node, sep, param = full_name.partition(".")
    if not sep or not node or not param:
        raise ValueError(f"expected '<node>.<param>', got {full_name!r}")
    return node, param


def _fragment_of(
    fragments: Mapping[str, Mapping[str, int]], group: "TuningGroup"
) -> Mapping[str, int]:
    """``group``'s fragment, or the ``KeyError`` naming the group."""
    try:
        return fragments[group.group_id]
    except KeyError:
        raise KeyError(f"missing fragment for group {group.group_id!r}") from None


@dataclass(frozen=True)
class TuningGroup:
    """One tuning session's view: a space plus the expansion to full names.

    ``expansion`` maps each tuned parameter name to the full per-node names
    it controls (one for identity/partitioning, several for duplication).
    ``constraints`` are expressed over the *tuned* names and passed to the
    group's search strategy.
    """

    group_id: str
    space: ParameterSpace
    expansion: Mapping[str, tuple[str, ...]]
    constraints: ConstraintSet = field(default_factory=ConstraintSet)

    def __post_init__(self) -> None:
        missing = set(self.space.names) - set(self.expansion)
        if missing:
            raise ValueError(f"group {self.group_id!r}: no expansion for {sorted(missing)}")
        dangling = self.constraints.names() - set(self.space.names)
        if dangling:
            raise ValueError(
                f"group {self.group_id!r}: constraints reference unknown "
                f"parameters {sorted(dangling)}"
            )
        # Derived once: the tuned names that control something (in space
        # order), and every (full, tuned) pair in full-name order; the
        # stable sort keeps the last tuned name winning a repeated target.
        tuned = tuple(name for name in self.space.names if self.expansion[name])
        targets = sorted(
            ((full, name) for name in tuned for full in self.expansion[name]),
            key=itemgetter(0),
        )
        object.__setattr__(self, "_tuned", tuned)
        object.__setattr__(self, "_fulls", tuple(full for full, _ in targets))
        object.__setattr__(self, "_sources", tuple(name for _, name in targets))

    def expand(self, config: Mapping[str, int]) -> dict[str, int]:
        """Tuned configuration fragment → full-name fragment.

        The result is in full-name order, so the :class:`Configuration`
        built from it sorts input that is already sorted.
        """
        values = {name: config[name] for name in self._tuned}
        return dict(zip(self._fulls, map(values.__getitem__, self._sources)))


class TuningScheme:
    """A partition of the full cluster space into tuning groups."""

    def __init__(self, full_space: ParameterSpace, groups: Sequence[TuningGroup]) -> None:
        self.full_space = full_space
        self.groups = tuple(groups)
        covered: dict[str, str] = {}
        for group in self.groups:
            for tuned in group.space.names:
                for full in group.expansion[tuned]:
                    if full not in full_space:
                        raise ValueError(
                            f"group {group.group_id!r} expands to unknown "
                            f"parameter {full!r}"
                        )
                    if full in covered:
                        raise ValueError(
                            f"parameter {full!r} covered by both "
                            f"{covered[full]!r} and {group.group_id!r}"
                        )
                    covered[full] = group.group_id
        uncovered = set(full_space.names) - set(covered)
        if uncovered:
            raise ValueError(f"parameters not covered by any group: {sorted(uncovered)}")

    @property
    def total_tuned_dimensions(self) -> int:
        """Sum of group dimensions (what the tuning servers actually search)."""
        return sum(g.space.dimension for g in self.groups)

    @property
    def max_group_dimension(self) -> int:
        """Largest group dimension — proxies the initial exploration length."""
        return max(g.space.dimension for g in self.groups)

    def combine(self, fragments: Mapping[str, Mapping[str, int]]) -> Configuration:
        """Group-id → tuned-config fragments → one full configuration.

        Every scheme combines through here; one that can build its
        configurations faster overrides :meth:`_build`.
        """
        return self._build(fragments)

    def _build(self, fragments: Mapping[str, Mapping[str, int]]) -> Configuration:
        """Merge every group's expansion, then validate the whole."""
        merged: dict[str, int] = {}
        for group in self.groups:
            merged.update(group.expand(_fragment_of(fragments, group)))
        full = Configuration(merged)
        self.full_space.validate(full)
        return full


def identity_scheme(
    full_space: ParameterSpace,
    group_id: str = "all",
    constraints: Optional[ConstraintSet] = None,
) -> TuningScheme:
    """The paper's *default method*: one server tunes every parameter."""
    group = TuningGroup(
        group_id=group_id,
        space=full_space,
        expansion={name: (name,) for name in full_space.names},
        constraints=constraints or ConstraintSet(),
    )
    return TuningScheme(full_space, [group])


class DuplicationScheme(TuningScheme):
    """Parameter duplication: tune one representative node per tier.

    ``tiers`` maps a tier name to the node ids in it; the first node listed
    is the representative.  The tuned space has names ``"<tier>.<param>"``
    and each value is duplicated to every node of the tier.  Every member
    must have each of the representative's parameters, under the same
    bounds.

    The scheme lays each tier out once, so a combine never treats the
    full configuration name by name: it checks the tuned values, copies
    them along the sorted full-name order, and hands the configuration
    its node slices, one shared tuple per tier.
    """

    def __init__(
        self,
        full_space: ParameterSpace,
        tiers: Mapping[str, Sequence[str]],
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        by_node: dict[str, list[str]] = {}
        for full_name in full_space.names:
            node, _ = split_name(full_name)
            by_node.setdefault(node, []).append(full_name)

        listed = [node for nodes in tiers.values() for node in nodes]
        if len(set(listed)) != len(listed):
            raise ValueError("a node appears in more than one tier")
        missing = set(by_node) - set(listed)
        if missing:
            raise ValueError(f"nodes not assigned to any tier: {sorted(missing)}")

        groups = []
        tuned_params: list[IntParameter] = []
        expansion: dict[str, tuple[str, ...]] = {}
        # Per tier: the representative's (param, tuned name) pairs and the
        # members, laid out for the build below.
        tier_layout: list[tuple[list[tuple[str, str]], tuple[str, ...]]] = []
        for tier_name, nodes in tiers.items():
            if not nodes:
                raise ValueError(f"tier {tier_name!r} has no nodes")
            rep = nodes[0]
            pairs = []
            for full_name in by_node.get(rep, []):
                _, param_name = split_name(full_name)
                base = full_space[full_name]
                tuned_name = f"{tier_name}.{param_name}"
                tuned_params.append(
                    IntParameter(
                        name=tuned_name,
                        default=base.default,
                        low=base.low,
                        high=base.high,
                        step=base.step,
                    )
                )
                bounds = (base.low, base.high, base.step)
                targets = []
                for node in nodes:
                    target = f"{node}.{param_name}"
                    if target not in full_space:
                        raise ValueError(
                            f"tier {tier_name!r} is not homogeneous: "
                            f"{target!r} missing from the full space"
                        )
                    member = full_space[target]
                    if (member.low, member.high, member.step) != bounds:
                        raise ValueError(
                            f"tier {tier_name!r} is not homogeneous: "
                            f"{target!r} has range [{member.low}, "
                            f"{member.high}], step {member.step}; "
                            f"{full_name!r} has [{base.low}, {base.high}], "
                            f"step {base.step}"
                        )
                    targets.append(target)
                expansion[tuned_name] = tuple(targets)
                pairs.append((param_name, tuned_name))
            tier_layout.append((sorted(pairs), tuple(nodes)))
        tuned_space = ParameterSpace(tuned_params)
        # Node-level constraints lift to the tier level: a constraint on the
        # representative node becomes one on the shared tier parameters.
        lifted: list[OrderingConstraint] = []
        if constraints:
            rep_to_tier = {
                f"{nodes[0]}.": f"{tier}." for tier, nodes in tiers.items()
            }
            for c in constraints:
                for rep_prefix, tier_prefix in rep_to_tier.items():
                    if c.lesser.startswith(rep_prefix) and c.greater.startswith(
                        rep_prefix
                    ):
                        lifted.append(
                            OrderingConstraint(
                                c.lesser.replace(rep_prefix, tier_prefix, 1),
                                c.greater.replace(rep_prefix, tier_prefix, 1),
                                c.min_gap,
                            )
                        )
                        break
        groups.append(
            TuningGroup(
                group_id="duplication",
                space=tuned_space,
                expansion=expansion,
                constraints=ConstraintSet(lifted),
            )
        )
        super().__init__(full_space, groups)
        self._lay_out(tier_layout)

    def _lay_out(
        self, tier_layout: Sequence[tuple[list[tuple[str, str]], tuple[str, ...]]]
    ) -> None:
        """Index the build by position in the fragment's value list.

        Every tier has a member, so every tuned name expands to some full
        name and the group's tuned names are its space's, in order.
        """
        (group,) = self.groups
        position = {name: i for i, name in enumerate(group._tuned)}
        self._fulls = group._fulls
        self._sources = tuple(map(position.__getitem__, group._sources))
        #: Per tier: its slice's parameter names and value positions.
        self._tier_slices = tuple(
            (
                tuple(param for param, _ in pairs),
                tuple(position[tuned] for _, tuned in pairs),
            )
            for pairs, _ in tier_layout
        )
        # Nodes in the order node_slices() finds them in the sorted full
        # names (a tier without parameters has none), each with its tier.
        tier_of = {
            node: index
            for index, (_, members) in enumerate(tier_layout)
            for node in members
        }
        nodes = dict.fromkeys(full.partition(".")[0] for full in self._fulls)
        self._slice_nodes = tuple(nodes)
        self._slice_tiers = tuple(map(tier_of.__getitem__, nodes))

    def _build(self, fragments: Mapping[str, Mapping[str, int]]) -> Configuration:
        """The full configuration, built from the tier layout.

        Each full value is a copy of a tuned value under the same bounds,
        so the fragment's legality in the tuned space is the full
        configuration's.  A fragment the array check does not pass takes
        the generic path, which gives the full check's verdict and error.
        """
        (group,) = self.groups
        fragment = _fragment_of(fragments, group)
        values = list(map(fragment.__getitem__, group._tuned))
        if not group.space.all_legal(values):
            return super()._build(fragments)
        items = tuple(zip(self._fulls, map(values.__getitem__, self._sources)))
        shared: dict[tuple, tuple] = {}
        tier_slices = [
            shared.setdefault(pairs, pairs)
            for pairs in (
                tuple(zip(params, map(values.__getitem__, where)))
                for params, where in self._tier_slices
            )
        ]
        slices = dict(
            zip(self._slice_nodes, map(tier_slices.__getitem__, self._slice_tiers))
        )
        return Configuration._from_sorted(items, MappingProxyType(slices))


class PartitionScheme(TuningScheme):
    """Parameter partitioning by work line: one group (and one Harmony
    server) per work line, tuning the parameters of that line's nodes."""

    def __init__(
        self,
        full_space: ParameterSpace,
        work_lines: Mapping[str, Sequence[str]],
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        by_node: dict[str, list[str]] = {}
        for full_name in full_space.names:
            node, _ = split_name(full_name)
            by_node.setdefault(node, []).append(full_name)

        listed = [node for nodes in work_lines.values() for node in nodes]
        if len(set(listed)) != len(listed):
            raise ValueError("a node appears in more than one work line")
        missing = set(by_node) - set(listed)
        if missing:
            raise ValueError(f"nodes not assigned to any work line: {sorted(missing)}")

        groups = []
        for line_id, nodes in work_lines.items():
            if not nodes:
                raise ValueError(f"work line {line_id!r} has no nodes")
            names = [n for node in nodes for n in by_node.get(node, [])]
            line_constraints = (
                constraints.restrict_to(names) if constraints else ConstraintSet()
            )
            groups.append(
                TuningGroup(
                    group_id=line_id,
                    space=full_space.subspace(names),
                    expansion={name: (name,) for name in names},
                    constraints=line_constraints,
                )
            )
        super().__init__(full_space, groups)
