"""Maximal-matching substrate.

ASM (Algorithm 1, Step 3) needs a distributed maximal-matching oracle on
the accepted-proposal graph ``G₀``.  This subpackage provides:

* :mod:`repro.mm.g0` — ``G₀`` over integer labels, the one id order
  every function below breaks ties by; each also takes a ``Graph``.
* :mod:`repro.mm.verify` — checkers for Definition 3 (maximality) and
  Definition 4 ((1−η)-maximality).
* :mod:`repro.mm.greedy` — a centralized greedy reference implementation.
* :mod:`repro.mm.israeli_itai` — the randomized Israeli–Itai [8]
  ``MatchingRound`` (Algorithm 4), full ``MaximalMatching`` (Corollary 1)
  and the truncated almost-maximal ``AMM`` (Corollary 2).
* :mod:`repro.mm.deterministic` — a deterministic distributed maximal
  matching used in place of Hańćkowiak–Karoński–Panconesi [6]
  (substitution documented in DESIGN.md §5).
"""

from repro.mm.result import MMResult
from repro.mm.g0 import G0, label_form
from repro.mm.greedy import greedy_maximal_matching
from repro.mm.israeli_itai import (
    matching_round,
    israeli_itai_maximal_matching,
    amm,
    rounds_for_maximality,
    rounds_for_amm,
)
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.bipartite import bipartite_port_order_matching
from repro.mm.verify import (
    is_valid_matching,
    violating_vertices,
    is_maximal_matching,
    is_almost_maximal_matching,
)

__all__ = [
    "MMResult",
    "G0",
    "label_form",
    "greedy_maximal_matching",
    "matching_round",
    "israeli_itai_maximal_matching",
    "amm",
    "rounds_for_maximality",
    "rounds_for_amm",
    "deterministic_maximal_matching",
    "bipartite_port_order_matching",
    "is_valid_matching",
    "violating_vertices",
    "is_maximal_matching",
    "is_almost_maximal_matching",
]
