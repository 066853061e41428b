"""Result type shared by all maximal-matching algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.graphs import NodeId

__all__ = ["MMResult", "partner_map_from_pairs"]


def partner_map_from_pairs(
    pairs: List[Tuple[NodeId, NodeId]]
) -> Dict[NodeId, NodeId]:
    """Build a symmetric partner map from a list of matched edges."""
    partner: Dict[NodeId, NodeId] = {}
    for u, v in pairs:
        if u in partner or v in partner:
            raise ValueError(f"vertex matched twice in pairs: ({u!r}, {v!r})")
        partner[u] = v
        partner[v] = u
    return partner


@dataclass
class MMResult:
    """Output of a (possibly almost-) maximal matching computation.

    Attributes
    ----------
    partner:
        Symmetric partner map; ``partner[u] == v`` iff ``{u, v}`` is a
        matched edge.  On a :class:`~repro.mm.g0.G0` its keys are
        labels; on a :class:`~repro.graphs.Graph` they are node ids,
        inserted in the id order.
    rounds:
        Communication rounds the simulated distributed algorithm used.
    per_iteration_active:
        Number of *active* (non-removed) vertices remaining after each
        algorithm iteration — used to measure the geometric decay of
        Lemma 8.
    edges:
        The matched edges as indices into the input's edge sequences
        (into ``graph.edges()`` for a ``Graph``), in no fixed order.
    """

    partner: Dict[NodeId, NodeId]
    rounds: int
    per_iteration_active: List[int] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)

    def pairs(self) -> List[Tuple[NodeId, NodeId]]:
        """Matched edges, once each, in the partner map's key order."""
        seen = set()
        out: List[Tuple[NodeId, NodeId]] = []
        for u, v in self.partner.items():
            if u not in seen:
                seen.add(v)
                out.append((u, v))
        return out

    def relabel(self, nodes: Sequence[NodeId]) -> "MMResult":
        """This label-form result over ``nodes[label]`` ids, the partner
        map in ascending label order."""
        partner = {
            nodes[a]: nodes[self.partner[a]] for a in sorted(self.partner)
        }
        return MMResult(
            partner, self.rounds, self.per_iteration_active, self.edges
        )

    @property
    def size(self) -> int:
        """Number of matched edges."""
        return len(self.partner) // 2
