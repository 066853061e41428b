"""Standalone CONGEST drivers for the maximal-matching protocols.

These run the fragments of :mod:`repro.congest.protocols.fragments`
as complete node programs on an arbitrary graph (a fragment returns
its node's partner, all a node program need return), so the matching
subroutines can be exercised (and measured) outside of ASM.  Results
are assembled by :func:`repro.congest.driver.run_protocol`: only
mutual partnerships count, and a fault-free run with a one-sided
claim raises.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.congest.driver import run_protocol
from repro.congest.protocols.fragments import (
    israeli_itai_fragment,
    pointer_matching_fragment,
    port_order_fragment,
)
from repro.faults.plan import FaultPlan
from repro.graphs import Graph
from repro.mm.result import MMResult

__all__ = [
    "run_congest_deterministic_mm",
    "run_congest_israeli_itai_mm",
    "run_congest_port_order_mm",
]


def run_congest_deterministic_mm(
    graph: Graph,
    iterations: Optional[int] = None,
    *,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
) -> MMResult:
    """Deterministic pointer matching as a real message-passing run.

    ``iterations`` defaults to ``⌈|V|/2⌉ + 1`` (always enough: each
    iteration marries at least one edge).  The result is identical to
    :func:`repro.mm.deterministic.deterministic_maximal_matching`.
    """
    if iterations is None:
        iterations = graph.num_nodes // 2 + 1
    programs = {
        v: pointer_matching_fragment(graph.neighbors(v), iterations)
        for v in graph.nodes()
    }
    run = run_protocol(graph, programs, telemetry=telemetry, faults=faults)
    return MMResult(partner=run.partner, rounds=run.sim.stats.rounds)


def run_congest_port_order_mm(
    graph: Graph,
    left_nodes,
    iterations: Optional[int] = None,
    *,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
) -> MMResult:
    """Bipartite port-order matching as a real message-passing run.

    ``left_nodes`` is the proposing side; ``iterations`` defaults to
    the maximum left degree (always enough).  Identical output to
    :func:`repro.mm.bipartite.bipartite_port_order_matching` with the
    same ``left_nodes``.
    """
    left = {v for v in left_nodes if graph.has_node(v)}
    if iterations is None:
        iterations = max(
            (graph.degree(v) for v in left), default=0
        ) or 1
    programs = {
        v: port_order_fragment(
            graph.neighbors(v), iterations, is_left=v in left
        )
        for v in graph.nodes()
    }
    run = run_protocol(graph, programs, telemetry=telemetry, faults=faults)
    return MMResult(partner=run.partner, rounds=run.sim.stats.rounds)


def run_congest_israeli_itai_mm(
    graph: Graph,
    iterations: int,
    seed: int = 0,
    *,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
) -> MMResult:
    """Israeli–Itai as a real message-passing run with local randomness.

    Each node derives its private random stream from ``seed`` and its
    own id, matching the CONGEST assumption of independent local coins.
    """
    programs = {
        v: israeli_itai_fragment(
            graph.neighbors(v), iterations, random.Random(f"{seed}-{v!r}")
        )
        for v in graph.nodes()
    }
    run = run_protocol(graph, programs, telemetry=telemetry, faults=faults)
    return MMResult(partner=run.partner, rounds=run.sim.stats.rounds)
