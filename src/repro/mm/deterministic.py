"""Deterministic distributed maximal matching.

The paper's deterministic algorithm (ASM) invokes the
Hańćkowiak–Karoński–Panconesi (HKP) maximal-matching algorithm [6],
which runs in ``O(log⁴ n)`` rounds.  HKP is a deep result whose
internals are orthogonal to this paper: ASM uses it strictly as a
black-box *maximal matching oracle*, and only its round bound enters
Theorem 4.

**Substitution (DESIGN.md §5).**  We implement a simple deterministic
distributed protocol — iterated *mutual-pointer* matching with
lowest-id tie-breaking:

    repeat until no active vertex has an active neighbor:
        every active (unmatched, non-isolated) vertex points at its
        minimum-id active neighbor; mutually-pointing pairs marry and
        withdraw.

Progress argument: in every iteration the globally minimum-id active
vertex ``v₀`` is pointed at by all of its active neighbors, and ``v₀``
points at one of them, so at least one edge is matched — the protocol
terminates in at most ``|V|/2 · ROUNDS_PER_POINTER_ROUND`` rounds and
its output is always a maximal matching (on termination no two
unmatched vertices are adjacent).  On the graphs ASM feeds it, far more
than one edge matches per iteration and convergence is fast; regardless,
the *correctness* of ASM's approximation guarantee (Theorem 3) only
requires maximality, which this protocol guarantees exactly.  To
reproduce the paper's *round complexity shape*, the ASM engine can
charge each oracle call the HKP bound instead of the simulated rounds
(see :mod:`repro.core.rounds`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.graphs import Graph
from repro.mm.g0 import G0, label_form
from repro.mm.result import MMResult

__all__ = ["ROUNDS_PER_POINTER_ROUND", "deterministic_maximal_matching"]

# One round to announce pointers, one to confirm marriages/withdrawals.
ROUNDS_PER_POINTER_ROUND = 2


def deterministic_maximal_matching(
    graph: Union[G0, Graph], max_iterations: Optional[int] = None
) -> MMResult:
    """Compute a maximal matching deterministically (see module docstring).

    The stdlib twin of the vec backend's Step-3 loop, with the least
    label as the minimum id.

    Parameters
    ----------
    graph:
        The input graph (not modified).
    max_iterations:
        Optional safety cap; when hit, the result is a valid (possibly
        non-maximal) matching.  Unbounded by default — termination is
        guaranteed.
    """
    if isinstance(graph, Graph):
        g0, nodes = label_form(graph)
        return deterministic_maximal_matching(g0, max_iterations).relabel(
            nodes
        )
    us, vs = graph.u, graph.v
    partner: Dict[int, int] = {}
    matched: List[int] = []
    active_counts: List[int] = []
    live: Sequence[int] = range(len(us))
    iterations = 0
    while live:
        if max_iterations is not None and iterations >= max_iterations:
            break
        # Labels are unique, so mutual pointers pick disjoint edges.
        pointer: Dict[int, int] = {}
        for e in live:
            a, b = us[e], vs[e]
            if pointer.get(a, b) >= b:
                pointer[a] = b
            if pointer.get(b, a) >= a:
                pointer[b] = a
        for e in live:
            a, b = us[e], vs[e]
            if pointer[a] == b and pointer[b] == a:
                partner[a], partner[b] = b, a
                matched.append(e)
        live = [
            e for e in live if us[e] not in partner and vs[e] not in partner
        ]
        active_counts.append(graph.count_nodes(live))
        iterations += 1
    return MMResult(
        partner=partner,
        rounds=iterations * ROUNDS_PER_POINTER_ROUND,
        per_iteration_active=active_counts,
        edges=matched,
    )
