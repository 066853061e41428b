#!/usr/bin/env python3
"""Scenario: plug your own maximal-matching oracle into ASM.

Theorem 3's analysis needs exactly one thing from Step 3 of
ProposalRound: the returned matching must be *maximal* in the
accepted-proposal graph (Definition 3).  This example implements a
custom oracle — highest-degree-first greedy — on the label form of
G₀ the engine hands every oracle, verifies its output against the
library's Definition-3 checker on every call, runs ASM
with it, and compares against the built-in oracles.

Run:  python examples/custom_oracle.py
"""

from __future__ import annotations

from repro import asm, complete_uniform, instability
from repro.analysis.tables import format_table
from repro.core.rounds import ActualCost
from repro.mm.g0 import G0
from repro.mm.oracles import (
    deterministic_oracle,
    israeli_itai_oracle,
    port_order_oracle,
)
from repro.mm.result import MMResult
from repro.mm.verify import violating_vertices


def degree_greedy_oracle(g0: G0) -> MMResult:
    """Custom oracle: repeatedly match the highest-degree free vertex.

    An oracle receives ``G₀`` as parallel edge sequences over integer
    labels (edge ``e`` joins man ``g0.u[e]`` and woman ``g0.v[e]``;
    labels compare in the protocol's id order) and returns the matched
    edges as indices into them.  A centralized heuristic (rounds
    reported as 0) that tends to produce *large* maximal matchings —
    useful if you care about matching size as well as stability.
    """
    incident = {}  # label -> {neighbour label: edge index}
    for e, (a, b) in enumerate(zip(g0.u, g0.v)):
        incident.setdefault(a, {})[b] = e
        incident.setdefault(b, {})[a] = e
    partner, matched = {}, []
    while incident:
        v = max(incident, key=lambda x: (len(incident[x]), x))
        u = max(incident[v], key=lambda x: (len(incident[x]), x))
        matched.append(incident[v][u])
        partner[v] = u
        partner[u] = v
        for x in (v, u):
            for y in incident.pop(x, {}):
                if y in incident:
                    del incident[y][x]
                    if not incident[y]:
                        del incident[y]
    # Definition 3: no edge joins two unmatched vertices.
    assert not violating_vertices(g0, partner), "oracle must be maximal!"
    return MMResult(partner=partner, rounds=0, edges=matched)


def main() -> None:
    n, eps = 128, 0.2
    prefs = complete_uniform(n, seed=0)

    oracles = {
        "custom degree-greedy": degree_greedy_oracle,
        "deterministic pointer": deterministic_oracle(),
        "bipartite port-order": port_order_oracle(),
        "Israeli-Itai": israeli_itai_oracle(seed=1),
    }
    rows = []
    for name, oracle in oracles.items():
        run = asm(prefs, eps, mm_oracle=oracle, mm_cost_model=ActualCost())
        rows.append(
            {
                "oracle": name,
                "instability": instability(prefs, run.matching),
                "eps_bound": eps,
                "matching_size": len(run.matching),
                "rounds_active": run.rounds_active,
            }
        )
    print(format_table(rows, title=f"ASM with pluggable oracles (n={n})"))
    print(
        "\nAll oracles satisfy the eps bound — Theorem 3 only needs "
        "maximality\n(verified per call inside the custom oracle)."
    )


if __name__ == "__main__":
    main()
