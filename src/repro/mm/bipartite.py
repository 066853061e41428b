"""Deterministic bipartite maximal matching in O(Δ) rounds (port order).

The accepted-proposal graph ``G₀`` that ASM's Step 3 feeds the
maximal-matching oracle is always *bipartite* (men × women).  For
bipartite graphs there is a classic deterministic distributed algorithm
far simpler than Hańćkowiak–Karoński–Panconesi, running in ``O(Δ)``
rounds where ``Δ`` is the maximum left-side degree:

    In round ``i`` (1-based), every still-unmatched left vertex
    proposes along its ``i``-th incident edge (its "port ``i``"), if it
    has one.  Every unmatched right vertex accepts the minimum-id
    proposer of the round.

**Correctness (maximality).**  Consider any edge ``(u, w)`` with port
index ``i`` at ``u``.  If ``u`` is still unmatched at round ``i``, it
proposes to ``w``; at the end of that round, either ``w`` was already
matched or ``w`` matches some proposer.  Either way the edge has a
matched endpoint — after ``Δ`` rounds no edge joins two unmatched
vertices, which is Definition 3.

This oracle complements :mod:`repro.mm.deterministic` (iterated mutual
pointers, O(n) worst case but degree-oblivious): when Δ is small —
e.g. when ASM runs with many quantiles so few proposals are accepted
per woman — port order is the better deterministic bound.  Experiment
A2 includes it in the oracle ablation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import InvalidParameterError
from repro.graphs import Graph, NodeId
from repro.mm.g0 import G0, label_form
from repro.mm.result import MMResult

__all__ = ["ROUNDS_PER_PORT_ROUND", "bipartite_port_order_matching"]

# One round to propose along the port, one for the acceptance.
ROUNDS_PER_PORT_ROUND = 2


def _bipartition(
    ports: Dict[int, List[Tuple[int, int]]]
) -> Optional[List[int]]:
    """Return one side of a bipartition, or ``None``.

    BFS 2-coloring; the returned side is the one containing the
    least-label vertex of each connected component (a deterministic
    choice so results are reproducible).
    """
    color: Dict[int, int] = {}
    left: List[int] = []
    for start in sorted(ports):
        if start in color:
            continue
        color[start] = 0
        left.append(start)
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u, _ in ports[v]:
                    if u not in color:
                        color[u] = 1 - color[v]
                        if color[u] == 0:
                            left.append(u)
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None  # odd cycle: not bipartite
            frontier = nxt
    return left


def bipartite_port_order_matching(
    graph: Union[G0, Graph],
    left_nodes: Optional[Iterable[NodeId]] = None,
) -> MMResult:
    """Compute a maximal matching of a bipartite graph by port order.

    Parameters
    ----------
    graph:
        The bipartite input graph; a ``Graph`` is ranked by ``repr``
        once (:func:`~repro.mm.g0.label_form`).
    left_nodes:
        The proposing side (labels on a ``G0``, node ids on a
        ``Graph``).  Defaults to an automatic 2-coloring; pass it
        explicitly (e.g. the men of ``G₀``, ``g0.u``) to match a
        distributed run where each node knows its own side.  Must be
        an independent set covering one endpoint of every edge.

    Raises
    ------
    InvalidParameterError
        If ``graph`` is not bipartite, or ``left_nodes`` is not a valid
        side (an edge with zero or two endpoints in it).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> g = Graph()
    >>> g.add_edge("L0", "R0"); g.add_edge("L0", "R1"); g.add_edge("L1", "R0")
    >>> result = bipartite_port_order_matching(g)
    >>> result.size   # {L0-R0} is maximal: both other edges touch it
    1
    >>> from repro.mm.verify import is_maximal_matching
    >>> is_maximal_matching(g, result.partner)
    True
    """
    if isinstance(graph, Graph):
        g0, nodes = label_form(graph)
        if left_nodes is not None:
            rank = {node: r for r, node in enumerate(nodes)}
            left_nodes = [rank[v] for v in left_nodes if v in rank]
        return bipartite_port_order_matching(g0, left_nodes).relabel(nodes)
    # Fixed port numbering: each vertex orders its incident edges by
    # neighbour label (the CONGEST version would use actual ports).
    ports: Dict[int, List[Tuple[int, int]]] = {x: [] for x in graph.isolated}
    for e, (a, b) in enumerate(zip(graph.u, graph.v)):
        ports.setdefault(a, []).append((b, e))
        ports.setdefault(b, []).append((a, e))
    for incident in ports.values():
        incident.sort()
    left = _bipartition(ports) if left_nodes is None else sorted(
        {x for x in left_nodes if x in ports}
    )
    if left is None:
        raise InvalidParameterError(
            "bipartite_port_order_matching requires a bipartite graph"
        )
    left_set = set(left)
    for a, b in zip(graph.u, graph.v):
        if (a in left_set) == (b in left_set):
            raise InvalidParameterError(
                f"left_nodes is not one side of a bipartition: edge "
                f"({a!r}, {b!r})"
            )
    max_degree = max((len(ports[v]) for v in left), default=0)
    partner: Dict[int, int] = {}
    matched: List[int] = []
    active_counts: List[int] = []
    for i in range(max_degree):
        # Propose phase: unmatched left vertices use port i.
        proposals: Dict[int, List[Tuple[int, int]]] = {}
        for v in left:
            if v not in partner and i < len(ports[v]):
                w, e = ports[v][i]
                if w not in partner:
                    proposals.setdefault(w, []).append((v, e))
        # Accept phase: each free right vertex takes its least proposer.
        for w, proposers in proposals.items():
            v, e = min(proposers)
            partner[v], partner[w] = w, v
            matched.append(e)
        active_counts.append(sum(1 for v in left if v not in partner))
    return MMResult(
        partner=partner,
        rounds=max_degree * ROUNDS_PER_PORT_ROUND,
        per_iteration_active=active_counts,
        edges=matched,
    )
