"""Distributed Gale–Shapley as a CONGEST protocol.

The natural distributed interpretation the paper's introduction
describes: every free man proposes to the best woman who has not yet
rejected him; every woman keeps the best suitor she has seen and
rejects the rest.  Two rounds per iteration (PROPOSE, then
ACCEPT/REJECT).

CONGEST has no global termination detection, so the programs run a
fixed ``iterations`` schedule supplied by the driver (the driver
defaults it to the quiescence point computed by the logical
:func:`repro.baselines.gale_shapley.parallel_gale_shapley`, plus one
idle iteration).  The final matching equals the (man-optimal) stable
matching of the centralized algorithm, which the test suite checks.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.baselines.gale_shapley import parallel_gale_shapley
from repro.congest.driver import player_partner, run_protocol
from repro.congest.message import Await, Message
from repro.congest.simulator import Simulator
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.faults.plan import FaultPlan, RetryTally
from repro.graphs import (
    NodeId,
    bipartite_graph_from_edges,
    man_node,
    node_index,
    woman_node,
)

__all__ = ["run_congest_gale_shapley"]


def _man_program(
    m: int, pref_list: Tuple[int, ...], iterations: int
) -> Generator:
    """Man's side: propose down the list until accepted; wait if engaged.

    An engaged or exhausted man sends nothing until an answer changes
    that, so he awaits mail for the rest of the schedule; a propose
    slot's inbox is dropped unread, as women never write in it.
    """
    next_choice = 0
    engaged_to: Optional[int] = None
    total = 2 * iterations
    at = 0  # rounds of the schedule behind this man
    while at < total:
        until = total
        if engaged_to is None and next_choice < len(pref_list):
            # ``at`` is even here: a propose slot.
            yield {woman_node(pref_list[next_choice]): Message("PROPOSE")}
            at += 1
            until = at + 1  # hear the answer
        inbox, waited = yield Await(until - at)
        at += waited
        if at % 2:
            continue  # a propose slot's inbox is unread
        for sender, msg in inbox.items():
            w = node_index(sender)
            if msg.kind == "ACCEPT":
                engaged_to = w
            elif msg.kind == "REJECT":
                if engaged_to == w:
                    engaged_to = None
                if (
                    next_choice < len(pref_list)
                    and pref_list[next_choice] == w
                ):
                    next_choice += 1
    return engaged_to


def _woman_program(
    w: int,
    pref_rank: Dict[int, int],
    iterations: int,
    tally: Optional[RetryTally] = None,
) -> Generator:
    """Woman's side: keep the best suitor seen so far, reject the rest.

    She acts only on proposals, so she awaits them; an answer slot's
    inbox is dropped unread.

    Fault tolerance: a proposal from her current fiancé is evidence
    that her ACCEPT was lost (engaged men never propose fault-free),
    so she retransmits it; ``tally`` counts the retries.  Proposals
    from worse men are already re-rejected by the normal flow.
    """
    fiance: Optional[int] = None
    total = 2 * iterations
    at = 0  # rounds of the schedule behind this woman
    while at < total:
        inbox, waited = yield Await(total - at)
        at += waited
        if at % 2 == 0:
            continue  # an answer slot's inbox is unread
        suitors = [
            node_index(s)
            for s, msg in inbox.items()
            if msg.kind == "PROPOSE"
        ]
        if not suitors:
            continue
        outbox: Dict[NodeId, Message] = {}
        candidates = suitors if fiance is None else suitors + [fiance]
        best = min(candidates, key=lambda m: pref_rank[m])
        if best != fiance:
            if fiance is not None:
                outbox[man_node(fiance)] = Message("REJECT")
            fiance = best
            outbox[man_node(best)] = Message("ACCEPT")
        elif best in suitors:
            # Lost-ACCEPT retransmission; never fires fault-free.
            outbox[man_node(best)] = Message("ACCEPT")
            if tally is not None:
                tally.count += 1
        for m in suitors:
            if m != best:
                outbox[man_node(m)] = Message("REJECT")
        yield outbox
        at += 1
    return fiance


def run_congest_gale_shapley(
    prefs: PreferenceProfile,
    iterations: Optional[int] = None,
    *,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> Tuple[Matching, "Simulator"]:
    """Run distributed Gale–Shapley over the simulator.

    Returns the final matching and the simulator (whose ``stats`` carry
    rounds/messages/bits).  ``iterations`` defaults to one past the
    logical engine's quiescence point.

    The matching keeps only mutually confirmed engagements.  Fault-free
    and in lockstep, a one-sided view raises
    :class:`~repro.errors.SimulationError`; with ``faults`` or a
    reordering ``transport`` it contributes no pair (e.g. a man whose
    fiancée moved on while his REJECT was in flight), and the
    simulator's ``faults`` injector and ``stats.outcome`` carry the
    degradation details.
    """
    if iterations is None:
        iterations = parallel_gale_shapley(prefs).iterations + 1
    programs: Dict[NodeId, Generator] = {}
    tally = RetryTally()
    for m in range(prefs.n_men):
        programs[man_node(m)] = _man_program(
            m, prefs.man_list(m), iterations
        )
    for w in range(prefs.n_women):
        rank = {m: r for r, m in enumerate(prefs.woman_list(w), 1)}
        programs[woman_node(w)] = _woman_program(w, rank, iterations, tally)
    run = run_protocol(
        bipartite_graph_from_edges(
            prefs.iter_edges(), prefs.n_men, prefs.n_women
        ),
        programs,
        telemetry=telemetry,
        faults=faults,
        transport=transport,
        tally=tally,
        partner_node=player_partner,
    )
    return run.matching(), run.sim
