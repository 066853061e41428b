"""The accepted-proposal graph ``G₀`` in label form.

Every maximal-matching algorithm here breaks ties by node id.  A
:class:`G0` fixes that order once: its nodes are integer *labels*,
compared numerically, and its edges are two parallel sequences.  In a
market, man ``i`` is labelled ``str_order_keys(n_men)[i]`` and woman
``j`` is labelled ``str_order_keys(n_women, woman_label_base(n_men))[j]``,
which is the ``repr`` order of the ``("M", i)`` / ``("W", j)`` nodes of
:mod:`repro.graphs` (``")"`` sorts before every digit, so
``repr(("M", i))`` compares as ``str(i)`` does).  A ``Graph`` is ranked
by ``repr`` once, in :func:`label_form`.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.graphs import Graph, NodeId

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "G0",
    "label_form",
    "str_order_keys",
    "decimal_str_order_keys",
    "woman_label_base",
]


def str_order_keys(n: int, base: int = 0) -> List[int]:
    """Integer keys for ``0..n-1`` ordered like ``sorted(range(n), key=str)``.

    String order is digit order with the digits padded *right* with
    zeros to a common width, ties (``"1"`` against ``"10"``) going to
    fewer digits; both parts pack into one unique integer::

        key(i) = base + i * 10**(maxd - digits(i)) * 32 + digits(i)
    """
    maxd = len(str(n - 1)) if n else 1
    return [
        base + i * 10 ** (maxd - len(s)) * 32 + len(s)
        for i, s in enumerate(map(str, range(n)))
    ]


def decimal_str_order_keys(n: int, base: int = 0) -> "np.ndarray":
    """The numpy twin of :func:`str_order_keys`: the same keys, int64."""
    import numpy as np

    ids = np.arange(n, dtype=np.int64)
    digits = np.ones(n, dtype=np.int64)
    v = ids // 10
    while v.size and int(v.max()) > 0:
        digits += v > 0
        v //= 10
    maxd = int(digits.max()) if n else 1
    return ids * (10 ** (maxd - digits)) * 32 + digits + base


def woman_label_base(n_men: int) -> int:
    """A ``base`` above every key of ``str_order_keys(n_men)``."""
    return 32 * 10 ** (len(str(n_men - 1)) if n_men else 1)


class G0:
    """An undirected simple graph: edge ``e`` joins labels ``u[e]`` and
    ``v[e]``.  Its nodes are the labels its edges touch plus
    ``isolated``; a caller that knows their count may pass it.

    >>> g = G0([0, 0, 1], [2, 3, 2])
    >>> g.num_nodes, g.num_edges, g.max_degree()
    (4, 3, 2)
    """

    __slots__ = ("u", "v", "isolated", "_num_nodes")

    def __init__(
        self,
        u: Sequence[int],
        v: Sequence[int],
        isolated: Sequence[int] = (),
        num_nodes: Optional[int] = None,
    ) -> None:
        self.u, self.v, self.isolated = u, v, isolated
        self._num_nodes = num_nodes

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @property
    def num_nodes(self) -> int:
        if self._num_nodes is None:
            every = range(len(self.u))
            self._num_nodes = self.count_nodes(every) + len(self.isolated)
        return self._num_nodes

    def count_nodes(self, edges: Sequence[int]) -> int:
        """How many labels the edges of these indices touch."""
        us, vs = self.u, self.v
        return len({us[e] for e in edges}.union([vs[e] for e in edges]))

    def max_degree(self) -> int:
        """The largest degree of any node (0 without edges)."""
        return max(Counter(chain(self.u, self.v)).values(), default=0)


def label_form(graph: Graph) -> Tuple[G0, List[NodeId]]:
    """``(g0, nodes)``: ``graph`` with node ``nodes[r]`` as label ``r``,
    ranked by ``repr``; ``g0``'s edges are ``graph.edges()``, in order."""
    nodes = graph.nodes()  # sorted by repr: the id order
    rank = {node: r for r, node in enumerate(nodes)}
    u: List[int] = []
    v: List[int] = []
    isolated: List[int] = []
    for r, node in enumerate(nodes):
        ranks = sorted(rank[x] for x in graph.neighbors(node))
        if not ranks:
            isolated.append(r)
        for s in ranks:
            if s > r:
                u.append(r)
                v.append(s)
    return G0(u, v, isolated, len(nodes)), nodes
