"""Verifiers for (almost-) maximal matchings.

Implements Definition 3 (maximal matching) and Definition 4
((1−η)-maximal matching) from the paper, used as ground truth in tests
and experiment harnesses.
"""

from __future__ import annotations

from typing import Container, Dict, List, Union

from repro.graphs import Graph, NodeId
from repro.mm.g0 import G0, label_form

__all__ = [
    "is_valid_matching",
    "violating_vertices",
    "is_maximal_matching",
    "is_almost_maximal_matching",
]


def is_valid_matching(graph: Graph, partner: Dict[NodeId, NodeId]) -> bool:
    """Whether ``partner`` encodes a matching of ``graph``.

    Checks symmetry (``partner[partner[v]] == v``), no self-matching,
    and that every matched pair is an edge of ``graph``.
    """
    for u, v in partner.items():
        if u == v:
            return False
        if partner.get(v) != u:
            return False
        if not graph.has_edge(u, v):
            return False
    return True


def violating_vertices(
    graph: Union[G0, Graph], partner: Container[NodeId]
) -> List[NodeId]:
    """Vertices failing both conditions of Definition 3, in id order.

    A vertex ``v`` satisfies Definition 3 if it is matched (condition 1)
    or every neighbor of ``v`` is matched (condition 2).  The returned
    vertices are the *unmatched* vertices of Definition 4 — unmatched
    with at least one unmatched neighbor, i.e. the endpoints of the
    edges with no matched endpoint.  ``partner`` is read for membership
    only.
    """
    if isinstance(graph, Graph):
        g0, nodes = label_form(graph)
        matched = {r for r, node in enumerate(nodes) if node in partner}
        return [nodes[r] for r in violating_vertices(g0, matched)]
    out = set()
    for a, b in zip(graph.u, graph.v):
        if a not in partner and b not in partner:
            out.add(a)
            out.add(b)
    return sorted(out)


def is_maximal_matching(graph: Graph, partner: Dict[NodeId, NodeId]) -> bool:
    """Definition 3: a valid matching not contained in a larger one."""
    return is_valid_matching(graph, partner) and not violating_vertices(
        graph, partner
    )


def is_almost_maximal_matching(
    graph: Graph, partner: Dict[NodeId, NodeId], eta: float
) -> bool:
    """Definition 4: at most ``η·|V|`` vertices violate Definition 3."""
    if not is_valid_matching(graph, partner):
        return False
    return len(violating_vertices(graph, partner)) <= eta * graph.num_nodes
