"""Hierarchical MVA: collapse homogeneous replicated tiers to representatives.

The paper's duplication assumption — "the workload [is] evenly distributed
among all the servers in the same tier" — means a tier of ``k`` identical
replicas running identical configurations contributes ``k`` copies of the
*same* station row to the closed network.  Hierarchical (flow-equivalent)
aggregation solves one representative station per group with its network
weight scaled by the replica count (``Station.multiplicity``), so a
64/128/16 topology costs the same per solve as a 3-node one.  For the
Schweitzer fixed point the aggregation is exact up to float summation
order; for the fluid solver it is exact, period (the population equation
is a per-station sum).

A group only collapses when its members agree on *everything* that feeds
the station math: role, hardware spec, and configuration slice.  Members
that disagree — a heterogeneous tier, or a duplication-free configuration
that tunes replicas apart — fall out into singleton groups, i.e. the plan
degrades gracefully to the exact per-node solve rather than aggregating
incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cluster.topology import ClusterSpec
from repro.harmony.parameter import Configuration

__all__ = ["AggregationPlan", "aggregation_plan"]


@dataclass(frozen=True)
class AggregationPlan:
    """Replica groups of one ``(cluster, configuration)`` pair.

    ``groups`` maps each group's representative (its first member in
    placement order) to the full member tuple, ordered by the
    representative's placement.  A trivial plan (every group a singleton)
    means aggregation has nothing to offer and callers should take the
    ordinary per-node path.
    """

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def is_trivial(self) -> bool:
        """True when no group has more than one member."""
        return all(len(members) == 1 for _, members in self.groups)

    @property
    def num_nodes(self) -> int:
        """Total nodes represented across all groups."""
        return sum(len(members) for _, members in self.groups)

    def expansions(self) -> list[tuple[str, tuple[str, ...]]]:
        """The non-singleton groups: ``(representative, other members)``.

        This is what solution finalization consumes to copy the
        representative's per-node outputs (utilization, §IV diagnostics)
        onto every aggregated-away member.
        """
        return [
            (rep, members[1:])
            for rep, members in self.groups
            if len(members) > 1
        ]


def aggregation_plan(
    cluster: ClusterSpec, configuration: Mapping[str, int]
) -> AggregationPlan:
    """Group ``cluster``'s nodes into aggregable replica groups.

    Two nodes share a group iff they have the same role, the same
    hardware spec, and identical configuration slices.  The cluster's
    cached :meth:`~ClusterSpec.replica_members` supply the first two; each
    is split by the members' :meth:`Configuration.node_slices`, sorted by
    parameter name so the grouping is independent of mapping iteration
    order.  Groups are ordered by their representative's placement.

    The slices are split once per configuration, on first use, and
    shared with :meth:`ClusterSpec.node_config`; a configuration built by
    a duplication combine arrives with them, one shared tuple per tier.
    A plain mapping is first turned into a :class:`Configuration`, which
    sorts it.
    """
    slices = Configuration.coerce(configuration).node_slices()
    groups: list[tuple[str, ...]] = []
    split = False
    for members in cluster.replica_members():
        by_slice: dict[tuple, list[str]] = {}
        for node_id in members:
            by_slice.setdefault(slices.get(node_id, ()), []).append(node_id)
        split = split or len(by_slice) > 1
        groups.extend(map(tuple, by_slice.values()))
    if split:
        # A split group's later parts belong after other representatives.
        rank = {node_id: i for i, node_id in enumerate(cluster.node_ids)}
        groups.sort(key=lambda members: rank[members[0]])
    return AggregationPlan(groups=tuple((members[0], members) for members in groups))
