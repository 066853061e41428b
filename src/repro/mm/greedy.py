"""Centralized greedy maximal matching.

Not a distributed algorithm — this is the reference oracle used in
tests (any greedy over all edges is maximal) and as a fast
non-distributed stand-in when only the *output quality* of ASM matters
and round counts are charged analytically.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.graphs import Graph
from repro.mm.g0 import G0, label_form
from repro.mm.result import MMResult

__all__ = ["greedy_maximal_matching"]


def greedy_maximal_matching(graph: Union[G0, Graph]) -> MMResult:
    """Scan edges by lower, then higher label, matching whenever both
    ends are free.

    The result is always a maximal matching (every edge was considered;
    an edge skipped had a matched endpoint).  ``rounds`` is reported as
    0 — this oracle models "free" centralized computation; callers that
    need distributed round accounting use
    :mod:`repro.mm.israeli_itai` / :mod:`repro.mm.deterministic` or an
    analytic cost model (see ``repro.core.rounds``).
    """
    if isinstance(graph, Graph):
        g0, nodes = label_form(graph)
        return greedy_maximal_matching(g0).relabel(nodes)
    partner: Dict[int, int] = {}
    matched: List[int] = []
    for a, b, e in sorted(
        (min(a, b), max(a, b), e)
        for e, (a, b) in enumerate(zip(graph.u, graph.v))
    ):
        if a not in partner and b not in partner:
            partner[a], partner[b] = b, a
            matched.append(e)
    return MMResult(partner=partner, rounds=0, edges=matched)
