"""Oracle factories: maximal-matching subroutines as pluggable callables.

The ASM engine treats Step 3 of ``ProposalRound`` as a black-box oracle
``G0 -> MMResult`` (:data:`MMOracle`):

* it receives ``G₀`` as a :class:`~repro.mm.g0.G0`: edge ``e`` joins
  man label ``g0.u[e]`` and woman label ``g0.v[e]``, and the labels'
  numeric order is the one id order every tie-break follows (men
  before women, each side in ``str`` order of its indices);
* it returns an :class:`~repro.mm.result.MMResult` whose ``edges`` are
  the matched edges as indices into ``g0`` and whose ``partner`` maps
  label to label; ``rounds`` is what the call is charged.

Every function of :mod:`repro.mm` also accepts a
:class:`~repro.graphs.Graph`, ranked by ``repr`` once at entry.  These
factories build the oracles used in the paper's three algorithms:

* :func:`deterministic_oracle` — deterministic maximal matching
  (stands in for Hańćkowiak–Karoński–Panconesi; see DESIGN.md §5) —
  used by ``ASM``.
* :func:`truncated_israeli_itai_oracle` — Israeli–Itai truncated at a
  fixed iteration budget — used by ``RandASM`` (Theorem 5).
* :func:`amm_oracle` — ``AMM(η, δ)`` almost-maximal matching — used by
  ``AlmostRegularASM`` (Theorem 6).
* :func:`greedy_oracle` — centralized greedy, zero simulated rounds —
  a fast stand-in when only output quality matters.

Randomized oracles carry a persistent ``random.Random`` so a fixed seed
makes an entire algorithm run reproducible.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.mm.bipartite import bipartite_port_order_matching
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.g0 import G0
from repro.mm.greedy import greedy_maximal_matching
from repro.mm.israeli_itai import (
    israeli_itai_maximal_matching,
    rounds_for_amm,
)
from repro.mm.result import MMResult

__all__ = [
    "MMOracle",
    "deterministic_oracle",
    "port_order_oracle",
    "greedy_oracle",
    "israeli_itai_oracle",
    "truncated_israeli_itai_oracle",
    "amm_oracle",
]

MMOracle = Callable[[G0], MMResult]


def deterministic_oracle() -> MMOracle:
    """The deterministic maximal-matching oracle (always maximal)."""
    return deterministic_maximal_matching


def port_order_oracle() -> MMOracle:
    """Deterministic bipartite O(Δ)-round oracle (always maximal).

    Only valid on bipartite graphs — which every ``G₀`` ASM produces
    is.
    """
    return bipartite_port_order_matching


def greedy_oracle() -> MMOracle:
    """Centralized greedy oracle — always maximal, zero simulated rounds."""
    return greedy_maximal_matching


def israeli_itai_oracle(seed: int = 0) -> MMOracle:
    """Israeli–Itai run to completion — always maximal, random rounds."""
    rng = random.Random(seed)

    def oracle(graph: G0) -> MMResult:
        return israeli_itai_maximal_matching(graph, rng)

    return oracle


def truncated_israeli_itai_oracle(
    max_iterations: int, seed: int = 0
) -> MMOracle:
    """Israeli–Itai truncated after ``max_iterations`` MatchingRounds.

    Maximal with probability ``≥ 1 − η`` when ``max_iterations ≥
    rounds_for_maximality(n, η)`` (Corollary 1) — the subroutine of
    ``RandASM``.
    """
    rng = random.Random(seed)

    def oracle(graph: G0) -> MMResult:
        return israeli_itai_maximal_matching(
            graph, rng, max_iterations=max_iterations
        )

    return oracle


def amm_oracle(
    eta: float, delta: float, seed: int = 0
) -> MMOracle:
    """``AMM(η, δ)`` oracle — (1−η)-maximal w.p. ≥ 1−δ (Corollary 2).

    The iteration budget is fixed by ``(η, δ)`` alone, so each call
    costs O(log(1/ηδ)) rounds independent of ``n`` — the subroutine of
    ``AlmostRegularASM``.
    """
    rng = random.Random(seed)
    budget = rounds_for_amm(eta, delta)

    def oracle(graph: G0) -> MMResult:
        return israeli_itai_maximal_matching(graph, rng, max_iterations=budget)

    return oracle
