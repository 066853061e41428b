"""The Israeli–Itai randomized maximal matching algorithm [8].

Implements ``MatchingRound`` exactly as the paper's Algorithm 4:

1. each vertex picks a uniformly random neighbor, forming an oriented
   edge;
2. each vertex with positive in-degree keeps one uniformly random
   incoming edge and drops the rest, giving an undirected graph ``G'``;
3. each non-isolated vertex of ``G'`` picks one incident edge uniformly
   at random;
4. edges picked by *both* endpoints form the matching ``M₁``; matched
   and isolated vertices are removed, leaving ``G₁``.

Lemma 8 guarantees ``E|V₁| ≤ c·|V₀|`` for an absolute constant
``c < 1``, so (Corollary 1) ``O(log(n/η))`` iterations give a maximal
matching with probability ``≥ 1 − η``, and (Corollary 2) ``AMM(η, δ)``
— truncation after ``O(log(1/ηδ))`` iterations — gives a
(1−η)-maximal matching with probability ``≥ 1 − δ``.

Each ``MatchingRound`` costs :data:`ROUNDS_PER_MATCHING_ROUND`
CONGEST communication rounds (one round per message-exchanging step).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import InvalidParameterError
from repro.graphs import Graph
from repro.mm.g0 import G0, label_form
from repro.mm.result import MMResult

__all__ = [
    "ROUNDS_PER_MATCHING_ROUND",
    "DEFAULT_DECAY_C",
    "matching_round",
    "israeli_itai_maximal_matching",
    "amm",
    "rounds_for_maximality",
    "rounds_for_amm",
]

# Steps 1 (pick neighbor), 2 (keep one in-edge → notify), and 3-4
# (pick incident edge → mutual confirmation) each exchange one batch of
# messages between neighbors.
ROUNDS_PER_MATCHING_ROUND = 3

# The absolute constant c < 1 of Lemma 8.  Israeli and Itai do not
# compute it explicitly; experiment E6 measures the empirical decay
# (≈0.6 on random graphs).  We use a conservative default for round
# budgeting so that truncated runs meet their probability targets.
DEFAULT_DECAY_C = 0.75


def matching_round(
    graph: Union[G0, Graph], rng: random.Random
) -> Tuple[list, Union[G0, Graph]]:
    """One ``MatchingRound`` (Algorithm 4) on ``graph``.

    Returns the matched edges ``M₁`` and the residual graph ``G₁``
    (matched vertices and isolated vertices removed): on a ``G0``, edge
    indices and the ``G0`` of the edges left; on a ``Graph``, node
    pairs and a ``Graph``.  ``graph`` is not modified.
    """
    g0, nodes = (graph, None) if isinstance(graph, G0) else label_form(graph)
    us, vs = g0.u, g0.v
    matched, live = _matching_round(us, vs, range(len(us)), rng)
    if nodes is None:
        return matched, G0([us[e] for e in live], [vs[e] for e in live])
    residual = Graph()
    for e in live:
        residual.add_edge(nodes[us[e]], nodes[vs[e]])
    return [(nodes[us[e]], nodes[vs[e]]) for e in matched], residual


def _matching_round(
    us: Sequence[int],
    vs: Sequence[int],
    live: Sequence[int],
    rng: random.Random,
) -> Tuple[List[int], List[int]]:
    """One ``MatchingRound`` over the ``live`` edges of ``(us, vs)``:
    the matched edges and the live edges left.  Every step draws in
    ascending label order, among candidates in ascending label order."""
    incident: Dict[int, List[Tuple[int, int]]] = {}
    for e in live:
        incident.setdefault(us[e], []).append((vs[e], e))
        incident.setdefault(vs[e], []).append((us[e], e))
    nodes = sorted(incident)

    # Step 1: each vertex picks a uniformly random neighbour.
    incoming: Dict[int, List[Tuple[int, int]]] = {}
    for x in nodes:
        nbrs = sorted(incident[x])
        w, e = nbrs[rng.randrange(len(nbrs))]
        incoming.setdefault(w, []).append((x, e))

    # Step 2: each vertex with in-degree > 0 keeps one incoming edge.
    g_prime: Dict[int, Dict[int, int]] = {x: {} for x in nodes}
    for w in sorted(incoming):
        senders = sorted(incoming[w])
        x, e = senders[rng.randrange(len(senders))]
        g_prime[x][w] = g_prime[w][x] = e

    # Step 3: each non-isolated vertex of G' picks one incident edge.
    pick: Dict[int, int] = {}
    for x in nodes:
        if g_prime[x]:
            inc = sorted(g_prime[x])
            pick[x] = inc[rng.randrange(len(inc))]

    # Step 4: mutual picks become matched edges.
    matched: List[int] = []
    gone = set()
    for x in nodes:
        w = pick.get(x)
        if w is None or x in gone or w in gone:
            continue
        if pick.get(w) == x:
            matched.append(g_prime[x][w])
            gone.update((x, w))
    left = [e for e in live if us[e] not in gone and vs[e] not in gone]
    return matched, left


def _iterate(
    graph: Union[G0, Graph],
    rng: random.Random,
    max_iterations: Optional[int],
) -> MMResult:
    """Run MatchingRound until the graph is exhausted or the cap is hit."""
    if isinstance(graph, Graph):
        g0, nodes = label_form(graph)
        return _iterate(g0, rng, max_iterations).relabel(nodes)
    us, vs = graph.u, graph.v
    partner: Dict[int, int] = {}
    matched: List[int] = []
    active_counts: List[int] = []
    live: Sequence[int] = range(len(us))
    iterations = 0
    while live:
        if max_iterations is not None and iterations >= max_iterations:
            break
        round_matched, live = _matching_round(us, vs, live, rng)
        for e in round_matched:
            partner[us[e]], partner[vs[e]] = vs[e], us[e]
        matched.extend(round_matched)
        active_counts.append(graph.count_nodes(live))
        iterations += 1
    return MMResult(
        partner=partner,
        rounds=iterations * ROUNDS_PER_MATCHING_ROUND,
        per_iteration_active=active_counts,
        edges=matched,
    )


def israeli_itai_maximal_matching(
    graph: Union[G0, Graph],
    rng: Optional[random.Random] = None,
    max_iterations: Optional[int] = None,
) -> MMResult:
    """Iterate ``MatchingRound`` until ``G_k = ∅`` (maximal matching).

    With ``max_iterations`` set, this is the truncated variant used by
    ``RandASM``: the result is a valid matching that is maximal with
    probability ``≥ 1 − η`` when ``max_iterations ≥
    rounds_for_maximality(n, η)`` (Corollary 1).
    """
    rng = rng if rng is not None else random.Random(0)
    return _iterate(graph, rng, max_iterations)


def rounds_for_maximality(
    n: int, eta: float, decay_c: float = DEFAULT_DECAY_C
) -> int:
    """``s = ⌈log(n/η)/log(1/c)⌉`` iterations for Corollary 1.

    After ``s`` iterations, ``Pr(|V_s| ≥ 1) ≤ c^s·n ≤ η``.
    """
    if eta <= 0 or eta >= 1:
        raise InvalidParameterError(f"eta must be in (0, 1), got {eta}")
    if not 0 < decay_c < 1:
        raise InvalidParameterError(f"decay_c must be in (0, 1), got {decay_c}")
    if n <= 1:
        return 1
    return max(1, math.ceil(math.log(n / eta) / math.log(1.0 / decay_c)))


def rounds_for_amm(
    eta: float, delta: float, decay_c: float = DEFAULT_DECAY_C
) -> int:
    """``s = ⌈log(1/(ηδ))/log(1/c)⌉`` iterations for Corollary 2.

    After ``s`` iterations, ``Pr(|V_s| ≥ η·n) ≤ c^s/η ≤ δ`` by Markov.
    """
    if eta <= 0 or eta >= 1:
        raise InvalidParameterError(f"eta must be in (0, 1), got {eta}")
    if delta <= 0 or delta >= 1:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    if not 0 < decay_c < 1:
        raise InvalidParameterError(f"decay_c must be in (0, 1), got {decay_c}")
    return max(1, math.ceil(math.log(1.0 / (eta * delta)) / math.log(1.0 / decay_c)))


def amm(
    graph: Union[G0, Graph],
    eta: float,
    delta: float,
    rng: Optional[random.Random] = None,
    decay_c: float = DEFAULT_DECAY_C,
) -> MMResult:
    """``AMM(η, δ)`` — almost-maximal matching (Corollary 2).

    Runs ``rounds_for_amm(eta, delta)`` MatchingRounds; the output is a
    (1−η)-maximal matching with probability at least ``1 − δ``, in
    ``O(log(1/ηδ))`` communication rounds independent of ``n``.
    """
    rng = rng if rng is not None else random.Random(0)
    return _iterate(graph, rng, rounds_for_amm(eta, delta, decay_c))
