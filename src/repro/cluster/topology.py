"""Cluster topology: tiers, the cluster-wide parameter space, reconfiguration.

A :class:`ClusterSpec` is an immutable assignment of nodes to tiers.  Its
full parameter space namespaces each node's role parameters as
``"<node_id>.<param>"`` — the format the scaling schemes of
:mod:`repro.harmony.scaling` expect.  §IV's reconfiguration operation —
"reconfigure node B to run the same server process as node A" — is
:meth:`ClusterSpec.move_node`, which returns a new spec with the node
re-rolled (node ids are stable labels and survive moves).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Mapping, Sequence

from repro.cluster.node import DEFAULT_NODE, NodeSpec, Role
from repro.cluster.params import constraints_for_role, params_for_role
from repro.harmony.constraints import ConstraintSet
from repro.harmony.parameter import Configuration, IntParameter, ParameterSpace

__all__ = ["NodePlacement", "ClusterSpec"]


@dataclass(frozen=True)
class NodePlacement:
    """One node: a stable id, its current tier role, and its hardware."""

    node_id: str
    role: Role
    spec: NodeSpec = DEFAULT_NODE

    def __post_init__(self) -> None:
        if not self.node_id or "." in self.node_id:
            raise ValueError(
                f"node_id must be non-empty and contain no '.', got {self.node_id!r}"
            )


class ClusterSpec:
    """An immutable cluster layout (who serves which tier)."""

    def __init__(self, placements: Sequence[NodePlacement], name: str = "cluster") -> None:
        ids = [p.node_id for p in placements]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate node ids: {dupes}")
        for role in Role:
            if not any(p.role is role for p in placements):
                raise ValueError(f"cluster needs at least one {role.value} node")
        self.name = name
        self._placements: tuple[NodePlacement, ...] = tuple(placements)
        self._by_id = {p.node_id: p for p in self._placements}

    @classmethod
    def three_tier(
        cls,
        n_proxy: int = 1,
        n_app: int = 1,
        n_db: int = 1,
        spec: NodeSpec = DEFAULT_NODE,
        name: str = "cluster",
    ) -> "ClusterSpec":
        """A homogeneous cluster with the given tier sizes."""
        placements = (
            [NodePlacement(f"proxy{i}", Role.PROXY, spec) for i in range(n_proxy)]
            + [NodePlacement(f"app{i}", Role.APP, spec) for i in range(n_app)]
            + [NodePlacement(f"db{i}", Role.DB, spec) for i in range(n_db)]
        )
        return cls(placements, name=name)

    @classmethod
    def wide(
        cls,
        n_proxy: int = 64,
        n_app: int = 128,
        n_db: int = 16,
        spec: NodeSpec = DEFAULT_NODE,
        name: str = "wide",
    ) -> "ClusterSpec":
        """A production-width homogeneous cluster (64/128/16 by default).

        Identical in shape to :meth:`three_tier` — it exists as the named
        entry point for the scale axis: wide clusters are what the
        hierarchical solver (:mod:`repro.model.hierarchy`) collapses to
        one representative station per tier, so a 64/128/16 topology
        solves at the cost of a 1/1/1 one.
        """
        return cls.three_tier(n_proxy, n_app, n_db, spec=spec, name=name)

    # -- introspection ------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Content identity of the layout (for measurement caching).

        Covers everything that affects performance — node ids, roles and
        hardware — but not the display name; two clusters with identical
        placements fingerprint identically however they were built.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = tuple(
                (p.node_id, p.role.value, astuple(p.spec))
                for p in self._placements
            )
            self._fingerprint = cached
        return cached

    @property
    def placements(self) -> tuple[NodePlacement, ...]:
        """All node placements."""
        return self._placements

    @property
    def node_ids(self) -> list[str]:
        """All node ids, in placement order."""
        return [p.node_id for p in self._placements]

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self._placements)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def placement(self, node_id: str) -> NodePlacement:
        """The placement of one node."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    def role_of(self, node_id: str) -> Role:
        """The tier a node currently serves (the paper's ``Tier(i)``)."""
        return self.placement(node_id).role

    def nodes_in(self, role: Role) -> list[str]:
        """Node ids serving ``role``, in placement order."""
        return [p.node_id for p in self._placements if p.role is role]

    def tier_size(self, role: Role) -> int:
        """The paper's ``M(t)``: number of nodes in tier ``t``."""
        return len(self.nodes_in(role))

    def tiers(self) -> dict[str, list[str]]:
        """Role-name → node ids (the shape the scaling schemes take)."""
        return {role.value: self.nodes_in(role) for role in Role}

    def replica_groups(self) -> dict[str, list[str]]:
        """Hardware-homogeneous replica groups, keyed by representative.

        Nodes sharing a role *and* a hardware spec form one group; the
        representative is the first member in placement order.  This is
        the topology-level half of hierarchical aggregation — whether the
        group actually collapses also depends on the members sharing a
        configuration slice (see
        :func:`repro.model.hierarchy.aggregation_plan`).
        """
        return {members[0]: list(members) for members in self.replica_members()}

    def replica_members(self) -> tuple[tuple[str, ...], ...]:
        """:meth:`replica_groups`' member tuples, in representative order.

        Computed once: the layout is immutable, and
        :func:`~repro.model.hierarchy.aggregation_plan` reads the groups
        for every configuration it plans.
        """
        cached = getattr(self, "_replica_members", None)
        if cached is None:
            groups: dict[tuple, list[str]] = {}
            for p in self._placements:
                groups.setdefault((p.role.value, p.spec), []).append(p.node_id)
            cached = self._replica_members = tuple(map(tuple, groups.values()))
        return cached

    # -- parameter space -------------------------------------------------------
    def full_space(self) -> ParameterSpace:
        """Every node's role parameters, namespaced ``"<node>.<param>"``.

        Built in one pass, in placement order, and cached: the layout is
        immutable, while hot paths — ``extremeness()`` per measurement —
        ask for it per call.
        """
        cached = getattr(self, "_full_space", None)
        if cached is None:
            cached = self._full_space = ParameterSpace(
                [
                    IntParameter(
                        name=f"{p.node_id}.{param.name}",
                        default=param.default,
                        low=param.low,
                        high=param.high,
                        step=param.step,
                    )
                    for p in self._placements
                    for param in params_for_role(p.role)
                ]
            )
        return cached

    def default_configuration(self) -> Configuration:
        """The paper's "Default config." across all nodes."""
        return self.full_space().default_configuration()

    def full_constraints(self) -> ConstraintSet:
        """Every node's role constraints, namespaced like the full space."""
        merged = ConstraintSet()
        for p in self._placements:
            merged = merged.merge(
                constraints_for_role(p.role).prefixed(f"{p.node_id}.")
            )
        return merged

    def node_config(
        self, full_config: Mapping[str, int], node_id: str
    ) -> dict[str, int]:
        """Extract one node's un-namespaced parameter values.

        Reads the configuration's cached per-node slices (see
        :meth:`Configuration.node_slices`), so extracting every node costs
        one pass over the configuration, not one per node.
        """
        if node_id not in self._by_id:
            raise KeyError(f"unknown node {node_id!r}")
        slices = Configuration.coerce(full_config).node_slices()
        out = dict(slices.get(node_id, ()))
        expected = {p.name for p in params_for_role(self.role_of(node_id))}
        missing = expected - out.keys()
        if missing:
            raise ValueError(
                f"configuration missing parameters for {node_id!r}: {sorted(missing)}"
            )
        return out

    # -- reconfiguration ---------------------------------------------------------
    def move_node(self, node_id: str, new_role: Role) -> "ClusterSpec":
        """Re-role a node (the §IV reconfiguration step 5).

        The vacated tier must keep at least one node — the algorithm's
        constraint (b) ``M(Tier(k)) > 1``.
        """
        placement = self.placement(node_id)
        if placement.role is new_role:
            raise ValueError(f"{node_id!r} already serves {new_role.value}")
        if self.tier_size(placement.role) <= 1:
            raise ValueError(
                f"cannot move {node_id!r}: it is the last {placement.role.value} node"
            )
        new_placements = [
            NodePlacement(p.node_id, new_role, p.spec) if p.node_id == node_id else p
            for p in self._placements
        ]
        return ClusterSpec(new_placements, name=self.name)

    def move_nodes(
        self, node_ids: Sequence[str], new_role: Role
    ) -> "ClusterSpec":
        """Re-role a batch of nodes in one step (tier-group reconfiguration).

        The wide-topology analogue of :meth:`move_node`: on a 128-node app
        tier the §IV controller shifts *groups* of replicas between tiers,
        and validating/rebuilding the spec once per group instead of once
        per node keeps the operation O(cluster).  Every vacated tier must
        keep at least one node after the whole batch moves.
        """
        moving = set(node_ids)
        if len(moving) != len(node_ids):
            raise ValueError("duplicate node ids in move batch")
        vacated: dict[Role, int] = {}
        for node_id in node_ids:
            role = self.placement(node_id).role
            if role is new_role:
                raise ValueError(f"{node_id!r} already serves {new_role.value}")
            vacated[role] = vacated.get(role, 0) + 1
        for role, count in vacated.items():
            if self.tier_size(role) - count < 1:
                raise ValueError(
                    f"cannot move {sorted(moving)}: the {role.value} tier "
                    f"would be left empty"
                )
        new_placements = [
            NodePlacement(p.node_id, new_role, p.spec)
            if p.node_id in moving
            else p
            for p in self._placements
        ]
        return ClusterSpec(new_placements, name=self.name)

    def work_lines(self, count: int) -> dict[str, list[str]]:
        """Partition nodes into ``count`` work lines (§III.B).

        Each line gets at least one node from every tier (the scheme's
        validity condition); nodes are dealt round-robin within each tier.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        for role in Role:
            if self.tier_size(role) < count:
                raise ValueError(
                    f"cannot form {count} work lines: only "
                    f"{self.tier_size(role)} {role.value} node(s)"
                )
        lines: dict[str, list[str]] = {f"line{i}": [] for i in range(count)}
        for role in Role:
            for i, node_id in enumerate(self.nodes_in(role)):
                lines[f"line{i % count}"].append(node_id)
        return lines

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{role.value}={self.tier_size(role)}" for role in Role
        )
        return f"ClusterSpec({self.name!r}, {parts})"
