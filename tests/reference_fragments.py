"""The maximal-matching fragments before they slept or awaited, kept
as a test oracle.

These are the fragments of :mod:`repro.congest.protocols.fragments` as
they were before nodes could wait: every node is resumed in every
round of the schedule and reads every inbox, also once it is matched
or has nothing left to match.  ``tests/test_congest_sleep.py`` runs
every protocol with these (and ``tests/reference_protocols.py``) in
place of the product code and requires the same run, byte for byte —
so a fragment that waits through a round whose inbox could matter
under some delivery, or misreads the round an early wake lands in,
fails there.  The one edit: withdrawal broadcasts iterate their sets
in sorted order (the transport orders recipients anyway).
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Iterable, Optional, Set

from repro.congest.message import Message
from repro.graphs import NodeId

MatchFragment = Generator[
    Dict[NodeId, Message], Dict[NodeId, Message], Optional[NodeId]
]


def pointer_matching_fragment(
    g0_neighbors: Iterable[NodeId], iterations: int
) -> MatchFragment:
    """Deterministic mutual-pointer matching over this node's G₀ edges.

    Each iteration costs exactly two rounds for every node:

    1. every unmatched node with unmatched G₀-neighbors sends
       ``MM_POINT`` to its minimum-id such neighbor; mutual pointers
       marry (detected from the same round's inbox);
    2. newly married nodes broadcast ``MM_TAKEN`` so neighbors prune
       them from their active sets.

    Runs the full ``iterations`` schedule even after marrying (other
    nodes are still working — lockstep).  Returns the partner node id
    or ``None``.
    """
    active: Set[NodeId] = set(g0_neighbors)
    partner: Optional[NodeId] = None
    for _ in range(iterations):
        outbox: Dict[NodeId, Message] = {}
        target: Optional[NodeId] = None
        if partner is None and active:
            target = min(active, key=repr)
            outbox = {target: Message("MM_POINT")}
        inbox = yield outbox
        pointed_at_me = {
            s for s, msg in inbox.items() if msg.kind == "MM_POINT"
        }
        married_now = (
            partner is None and target is not None and target in pointed_at_me
        )
        outbox = {}
        if married_now:
            partner = target
            outbox = {
                v: Message("MM_TAKEN") for v in sorted(active, key=repr)
            }
        inbox = yield outbox
        for s, msg in inbox.items():
            if msg.kind == "MM_TAKEN":
                active.discard(s)
    return partner


def port_order_fragment(
    g0_neighbors: Iterable[NodeId],
    iterations: int,
    is_left: bool,
) -> MatchFragment:
    """Deterministic bipartite port-order matching (O(Δ) rounds).

    Message-level twin of
    :func:`repro.mm.bipartite.bipartite_port_order_matching` with the
    left side passed explicitly (in ASM, the men).  Two rounds per
    iteration:

    1. every unmatched left node sends ``PORT_PROPOSE`` along its
       ``i``-th port (its ``i``-th incident edge in deterministic
       order);
    2. every unmatched right node accepts the minimum-id proposer with
       ``PORT_ACCEPT``.

    Proposals reaching an already-matched right node are simply
    ignored — that edge is covered, so maximality is unaffected — which
    lets left nodes run without knowing their neighbors' state.
    """
    ports = sorted(g0_neighbors, key=repr)
    partner: Optional[NodeId] = None
    for i in range(iterations):
        # Round 1: left proposes along port i.
        outbox: Dict[NodeId, Message] = {}
        if is_left and partner is None and i < len(ports):
            outbox = {ports[i]: Message("PORT_PROPOSE")}
        inbox = yield outbox
        proposers = sorted(
            (s for s, msg in inbox.items() if msg.kind == "PORT_PROPOSE"),
            key=repr,
        )
        # Round 2: right accepts the minimum-id proposer.
        outbox = {}
        if not is_left and partner is None and proposers:
            partner = proposers[0]
            outbox = {partner: Message("PORT_ACCEPT")}
        inbox = yield outbox
        if is_left and partner is None:
            for s, msg in inbox.items():
                if msg.kind == "PORT_ACCEPT":
                    partner = s
                    break
    return partner


def israeli_itai_fragment(
    g0_neighbors: Iterable[NodeId],
    iterations: int,
    rng: random.Random,
) -> MatchFragment:
    """Israeli–Itai ``MatchingRound`` iterated over this node's G₀ edges.

    Four rounds per iteration (Algorithm 4 of the paper):

    1. ``II_CHOICE`` — pick a uniformly random active neighbor;
    2. ``II_KEEP`` — keep one uniformly random incoming choice
       (the kept edges form the sparse graph G′);
    3. ``II_PICK`` — pick one incident G′ edge; mutual picks marry;
    4. ``II_TAKEN`` — married nodes withdraw; neighbors prune them.

    ``rng`` is this node's *local* randomness.  Returns the partner
    node id or ``None``.
    """
    active: Set[NodeId] = set(g0_neighbors)
    partner: Optional[NodeId] = None
    for _ in range(iterations):
        # Round 1: random out-choice.
        outbox: Dict[NodeId, Message] = {}
        if partner is None and active:
            ordered = sorted(active, key=repr)
            choice = ordered[rng.randrange(len(ordered))]
            outbox = {choice: Message("II_CHOICE")}
        inbox = yield outbox
        incoming = sorted(
            (s for s, msg in inbox.items() if msg.kind == "II_CHOICE"),
            key=repr,
        )
        # Round 2: keep one incoming edge.
        outbox = {}
        kept_in: Optional[NodeId] = None
        if partner is None and incoming:
            kept_in = incoming[rng.randrange(len(incoming))]
            outbox = {kept_in: Message("II_KEEP")}
        inbox = yield outbox
        g_prime: Set[NodeId] = set()
        if partner is None:
            if kept_in is not None:
                g_prime.add(kept_in)
            for s, msg in inbox.items():
                if msg.kind == "II_KEEP":
                    g_prime.add(s)
        # Round 3: pick one incident G' edge.
        outbox = {}
        pick: Optional[NodeId] = None
        if partner is None and g_prime:
            ordered = sorted(g_prime, key=repr)
            pick = ordered[rng.randrange(len(ordered))]
            outbox = {pick: Message("II_PICK")}
        inbox = yield outbox
        married_now = (
            partner is None
            and pick is not None
            and inbox.get(pick, Message("NONE")).kind == "II_PICK"
        )
        # Round 4: withdraw.
        outbox = {}
        if married_now:
            partner = pick
            outbox = {
                v: Message("II_TAKEN") for v in sorted(active, key=repr)
            }
        inbox = yield outbox
        for s, msg in inbox.items():
            if msg.kind == "II_TAKEN":
                active.discard(s)
    return partner
