"""The ASM and Gale–Shapley node programs before they awaited, kept as
a test oracle.

These are the programs of :mod:`repro.congest.protocols.asm_protocol`
and :mod:`repro.congest.protocols.gs_protocol` as they were before
nodes could ``yield Await(n)``: every node is resumed in every round
of the schedule and reads (or drops) every inbox slot by slot.  With
``tests/reference_fragments.py`` in place of the product fragments,
they never await at all.  ``tests/test_congest_sleep.py`` runs every
protocol with these in place of the product programs and requires the
same run, byte for byte — so a program that misreads the slot an early
wake lands in, or awaits through a slot whose mail it should act on,
fails there.  The edits: the ASM programs take the ``_mm_fragment``
factory of this module (the never-awaiting fragments), the two sets
of programs are renamed per protocol, and the man's G₀ set is built
from his accepting women in sorted order (a set either way).
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional, Tuple

from repro.congest.message import Message
from repro.congest.protocols.asm_protocol import ASMSchedule
from repro.errors import InvalidParameterError
from repro.faults.plan import RetryTally
from repro.graphs import NodeId, man_node, node_index, woman_node
from tests.reference_fragments import (
    israeli_itai_fragment,
    pointer_matching_fragment,
    port_order_fragment,
)
from tests.reference_quantile import QuantizedList


def _mm_fragment(sched: ASMSchedule, g0_neighbors, rng, is_left: bool):
    """Instantiate one maximal-matching phase fragment."""
    if sched.mm_kind == "pointer":
        return pointer_matching_fragment(g0_neighbors, sched.mm_iterations)
    if sched.mm_kind == "port_order":
        return port_order_fragment(
            g0_neighbors, sched.mm_iterations, is_left
        )
    if sched.mm_kind == "israeli_itai":
        return israeli_itai_fragment(g0_neighbors, sched.mm_iterations, rng)
    raise InvalidParameterError(f"unknown mm_kind {sched.mm_kind!r}")


def asm_man_program(
    m: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
) -> Generator:
    """The man's side of ASM (Algorithms 1–3, male role)."""
    q = QuantizedList(pref_list, sched.k)
    partner: Optional[int] = None
    active: set = set()
    removed = False
    for i in range(sched.outer_iterations):
        threshold = 1 if sched.flat_schedule else 2 ** i
        for _ in range(sched.inner_iterations):
            # --- QuantileMatch: refill A if participating & unmatched.
            if (
                not removed
                and partner is None
                and q.remaining >= threshold
            ):
                best = q.best_nonempty_quantile()
                active = set(q.members_of(best)) if best is not None else set()
            for _ in range(sched.k):
                # --- ProposalRound slot 1: propose.
                inbox = yield {
                    woman_node(w): Message("PROPOSE") for w in sorted(active)
                }
                # --- slot 2: receive ACCEPTs.
                inbox = yield {}
                accepted_by = {
                    node_index(s)
                    for s, msg in inbox.items()
                    if msg.kind == "ACCEPT"
                }
                # --- maximal-matching phase on G0.
                g0_nbrs = {woman_node(w) for w in sorted(accepted_by)}
                mm_partner = yield from _mm_fragment(
                    sched, g0_nbrs, rng, is_left=True
                )
                if mm_partner is not None:
                    partner = node_index(mm_partner)
                    active = set()
                if sched.remove_violators:
                    # --- removal slot: unmatched women announce MM_FREE;
                    # an unmatched accepted man is a Def-3 violator.
                    inbox = yield {}
                    got_free = any(
                        msg.kind == "MM_FREE" for msg in inbox.values()
                    )
                    if mm_partner is None and got_free and not removed:
                        removed = True
                        active = set()
                # --- final slot: receive REJECTs.
                inbox = yield {}
                for s, msg in inbox.items():
                    if msg.kind == "REJECT":
                        w = node_index(s)
                        q.remove(w)
                        active.discard(w)
                        if partner == w:
                            partner = None
    return partner


def asm_woman_program(
    w: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
    tally: Optional[RetryTally] = None,
) -> Generator:
    """The woman's side of ASM (Algorithms 1–3, female role).

    Fault tolerance: a proposal from a man she has already removed
    from ``Q`` is evidence his REJECT was lost (fault-free, a rejected
    man never proposes again), so she retransmits the REJECT in the
    final slot.  The retry fires only on that evidence, keeping
    fault-free runs bit-identical; ``tally`` counts the retries.
    """
    q = QuantizedList(pref_list, sched.k)
    partner: Optional[int] = None
    for _ in range(sched.outer_iterations):
        for _ in range(sched.inner_iterations):
            for _ in range(sched.k):
                # --- slot 1: receive proposals.
                inbox = yield {}
                suitors = [
                    node_index(s)
                    for s, msg in inbox.items()
                    if msg.kind == "PROPOSE"
                ]
                stale = sorted(m for m in suitors if not q.contains(m))
                best = q.best_nonempty_among(suitors)
                accepted = (
                    {
                        m
                        for m in suitors
                        if q.contains(m) and q.quantile_of(m) == best
                    }
                    if best is not None
                    else set()
                )
                # --- slot 2: send ACCEPTs.
                inbox = yield {
                    man_node(m): Message("ACCEPT") for m in sorted(accepted)
                }
                # --- maximal-matching phase on G0.
                g0_nbrs = {man_node(m) for m in accepted}
                mm_partner = yield from _mm_fragment(
                    sched, g0_nbrs, rng, is_left=False
                )
                if sched.remove_violators:
                    # --- removal slot: announce freedom to accepted men.
                    free_outbox: Dict[NodeId, Message] = {}
                    if mm_partner is None:
                        free_outbox = {
                            man_node(m): Message("MM_FREE")
                            for m in sorted(accepted)
                        }
                    yield free_outbox
                # --- final slot: reject weakly-worse suitors.
                outbox: Dict[NodeId, Message] = {}
                # The q.contains guard is for faulty runs only: a
                # stray delayed message can marry the fragment to a
                # man she never accepted (hence already removed).
                if mm_partner is not None and q.contains(
                    node_index(mm_partner)
                ):
                    m0 = node_index(mm_partner)
                    q0 = q.quantile_of(m0)
                    rejected = q.members_at_least(q0) - {m0}
                    for m in sorted(rejected):
                        q.remove(m)
                        outbox[man_node(m)] = Message("REJECT")
                    partner = m0
                # Retransmit lost REJECTs to stale suitors (see
                # docstring); never reached in a fault-free run.
                for m in stale:
                    node = man_node(m)
                    if node not in outbox:
                        outbox[node] = Message("REJECT")
                        if tally is not None:
                            tally.count += 1
                yield outbox
    return partner


def gs_man_program(
    m: int, pref_list: Tuple[int, ...], iterations: int
) -> Generator:
    """Man's side: propose down the list until accepted; wait if engaged."""
    next_choice = 0
    engaged_to: Optional[int] = None
    for _ in range(iterations):
        outbox: Dict[NodeId, Message] = {}
        if engaged_to is None and next_choice < len(pref_list):
            outbox = {
                woman_node(pref_list[next_choice]): Message("PROPOSE")
            }
        inbox = yield outbox
        # Women never write in the propose round; responses come next.
        inbox = yield {}
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


def gs_woman_program(
    w: int,
    pref_rank: Dict[int, int],
    iterations: int,
    tally: Optional[RetryTally] = None,
) -> Generator:
    """Woman's side: keep the best suitor seen so far, reject the rest.

    Fault tolerance: a proposal from her current fiancé is evidence
    that her ACCEPT was lost (engaged men never propose fault-free),
    so she retransmits it; ``tally`` counts the retries.  Proposals
    from worse men are already re-rejected by the normal flow.
    """
    fiance: Optional[int] = None
    for _ in range(iterations):
        inbox = yield {}
        suitors = [
            node_index(s)
            for s, msg in inbox.items()
            if msg.kind == "PROPOSE"
        ]
        outbox: Dict[NodeId, Message] = {}
        if suitors:
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
    return fiance
