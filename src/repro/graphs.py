"""A minimal undirected graph type shared by the substrates.

The CONGEST simulator (``repro.congest``) operates on plain undirected
graphs whose nodes are arbitrary hashable ids; the maximal-matching
functions (``repro.mm``) accept one and rank it into their label form
(:mod:`repro.mm.g0`).  In the stable-matching setting, node ids
are ``("M", i)`` / ``("W", j)`` tuples produced by
:func:`man_node` / :func:`woman_node`, but nothing in this module
depends on that convention.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

__all__ = [
    "Graph",
    "NodeId",
    "man_node",
    "woman_node",
    "is_man_node",
    "node_index",
    "bipartite_graph_from_edges",
]

NodeId = Hashable


def man_node(m: int) -> Tuple[str, int]:
    """The graph node id for man ``m``."""
    return ("M", m)


def woman_node(w: int) -> Tuple[str, int]:
    """The graph node id for woman ``w``."""
    return ("W", w)


def is_man_node(v: NodeId) -> bool:
    """Whether ``v`` is a man node produced by :func:`man_node`."""
    return isinstance(v, tuple) and len(v) == 2 and v[0] == "M"


def node_index(v: NodeId) -> int:
    """The player index wrapped inside a man/woman node id."""
    return v[1]  # type: ignore[index]


class Graph:
    """An undirected simple graph over hashable node ids.

    Self-loops are rejected; adding an existing edge is a no-op.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.num_edges
    2
    """

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, v: NodeId) -> None:
        """Add an isolated node (no-op if present)."""
        self._adj.setdefault(v, set())

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``; nodes are created as needed."""
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has_node(self, v: NodeId) -> bool:
        """Whether ``v`` is a node of the graph."""
        return v in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: NodeId) -> FrozenSet[NodeId]:
        """The neighbor set of ``v``."""
        return frozenset(self._adj[v])

    def degree(self, v: NodeId) -> int:
        """The degree of ``v``."""
        return len(self._adj[v])

    def nodes(self) -> List[NodeId]:
        """All nodes, in deterministic (sorted-by-repr) order."""
        return sorted(self._adj, key=repr)

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All edges once each, in deterministic order."""
        seen = set()
        out: List[Tuple[NodeId, NodeId]] = []
        for v in self.nodes():
            for u in sorted(self._adj[v], key=repr):
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append((v, u))
        return out

    @property
    def num_nodes(self) -> int:
        """The number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """The number of edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def bipartite_graph_from_edges(
    edges: Iterable[Tuple[int, int]],
    n_men: int = 0,
    n_women: int = 0,
) -> Graph:
    """Build a :class:`Graph` from ``(man, woman)`` index pairs.

    ``n_men`` / ``n_women`` optionally force isolated nodes to exist for
    every player, which the CONGEST simulator needs (every processor
    participates in every round even when isolated).
    """
    g = Graph()
    for m in range(n_men):
        g.add_node(man_node(m))
    for w in range(n_women):
        g.add_node(woman_node(w))
    for m, w in edges:
        g.add_edge(man_node(m), woman_node(w))
    return g
