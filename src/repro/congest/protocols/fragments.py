"""Reusable maximal-matching subprotocol fragments.

These are generator *fragments*: they run inside a larger node program
via ``yield from``, consume a fixed number of synchronous rounds
(identical for every node — the CONGEST lockstep requirement), and
return the node's matched partner (or ``None``).  Wherever a node has
nothing to send until mail reaches it, it listens with one
``yield Await(n)`` up to its next sending round instead of yielding
``{}`` round by round, so the simulator resumes it only when there is
something to read; on an early wake it does with that inbox exactly
what the round-by-round fragment did.

A node with no G₀ edges sends nothing in a fragment unless mail
reaches it, so a caller already awaiting across the whole fragment
need not enter it: when mail wakes it inside, it passes the
``(inbox, rounds_waited)`` it got — counted from the fragment's first
round — as ``woke`` to a fragment built on no G₀ edges, which picks up
from there.

* :func:`pointer_matching_fragment` — the deterministic
  mutual-pointer protocol (2 rounds per iteration), message-level twin
  of :func:`repro.mm.deterministic.deterministic_maximal_matching`.
* :func:`israeli_itai_fragment` — Israeli–Itai's randomized
  ``MatchingRound`` (Algorithm 4; 4 rounds per iteration) with local
  per-node randomness.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Iterable, Optional, Set, Tuple

from repro.congest.message import Await, Message
from repro.graphs import NodeId

__all__ = [
    "pointer_matching_fragment",
    "israeli_itai_fragment",
    "port_order_fragment",
]

MatchFragment = Generator[Any, Any, Optional[NodeId]]
#: What ``yield Await(n)`` evaluates to: ``(inbox, rounds_waited)``.
Woke = Tuple[Dict[NodeId, Message], int]


def _wait_out(rounds: int) -> Generator[Await, Woke, None]:
    """Spend ``rounds`` rounds sending nothing and reading no mail.

    Mail that wakes the node early is dropped, and the node awaits the
    rest.
    """
    while rounds > 0:
        _, waited = yield Await(rounds)
        rounds -= waited


def pointer_matching_fragment(
    g0_neighbors: Iterable[NodeId],
    iterations: int,
    woke: Optional[Woke] = None,
) -> MatchFragment:
    """Deterministic mutual-pointer matching over this node's G₀ edges.

    Each iteration costs exactly two rounds for every node:

    1. every unmatched node with unmatched G₀-neighbors sends
       ``MM_POINT`` to its minimum-id such neighbor; mutual pointers
       marry (detected from the same round's inbox);
    2. newly married nodes broadcast ``MM_TAKEN`` so neighbors prune
       them from their active sets.

    Runs the full ``iterations`` schedule even after marrying (other
    nodes are still working — lockstep), waiting out the rest from the
    first iteration that starts with a partner or no active neighbors:
    such a node never sends again and nothing it can receive changes
    its result.  Returns the partner node id or ``None``.
    """
    active: Set[NodeId] = set(g0_neighbors)
    partner: Optional[NodeId] = None
    if woke is not None:
        yield from _wait_out(2 * iterations - woke[1])
        return None
    for i in range(iterations):
        if partner is not None or not active:
            yield from _wait_out(2 * (iterations - i))
            break
        target = min(active, key=repr)
        inbox = yield {target: Message("MM_POINT")}
        outbox: Dict[NodeId, Message] = {}
        if inbox.get(target, Message("NONE")).kind == "MM_POINT":
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
    woke: Optional[Woke] = None,
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
    lets left nodes run without knowing their neighbors' state, and
    lets a matched node wait out the rest of the schedule.  A right
    node, and a left one past its last port, awaits the mail it acts
    on: a proposal (right) or an acceptance (left).
    """
    ports = sorted(g0_neighbors, key=repr)
    partner: Optional[NodeId] = None
    total = 2 * iterations
    done = 0  # rounds of the fragment behind this node
    while done < total:
        if partner is not None:
            yield from _wait_out(total - done)
            break
        if woke is None and is_left and done < 2 * len(ports):
            # Round 1: propose along port i; round 2: hear the answer.
            yield {ports[done // 2]: Message("PORT_PROPOSE")}
            inbox = yield {}
            done += 2
            partner = _first_acceptor(inbox)
            continue
        if woke is None:
            woke = yield Await(total - done)
        inbox, waited = woke
        woke = None
        done += waited
        if done % 2 == 0:
            # A round-2 inbox: only a left node reads it.
            if is_left:
                partner = _first_acceptor(inbox)
            continue
        proposers = sorted(
            (s for s, msg in inbox.items() if msg.kind == "PORT_PROPOSE"),
            key=repr,
        )
        if not is_left and proposers:
            # Round 2: accept the minimum-id proposer.
            partner = proposers[0]
            yield {partner: Message("PORT_ACCEPT")}
            done += 1
    return partner


def _first_acceptor(inbox: Dict[NodeId, Message]) -> Optional[NodeId]:
    """The first ``PORT_ACCEPT`` sender in ``inbox``, if any."""
    return next(
        (s for s, msg in inbox.items() if msg.kind == "PORT_ACCEPT"), None
    )


def israeli_itai_fragment(
    g0_neighbors: Iterable[NodeId],
    iterations: int,
    rng: random.Random,
    woke: Optional[Woke] = None,
) -> MatchFragment:
    """Israeli–Itai ``MatchingRound`` iterated over this node's G₀ edges.

    Four rounds per iteration (Algorithm 4 of the paper):

    1. ``II_CHOICE`` — pick a uniformly random active neighbor;
    2. ``II_KEEP`` — keep one uniformly random incoming choice
       (the kept edges form the sparse graph G′);
    3. ``II_PICK`` — pick one incident G′ edge; mutual picks marry;
    4. ``II_TAKEN`` — married nodes withdraw; neighbors prune them.

    ``rng`` is this node's *local* randomness.  A matched node waits
    out the rest of the schedule.  An unmatched one sends its choice in
    round 1 while it has active neighbors and otherwise awaits the mail
    it answers: an ``II_CHOICE`` draws from its ``rng`` and gets an
    ``II_KEEP`` back, and an ``II_KEEP`` an ``II_PICK`` — also when
    they arrive late, under latency, after its neighbors are gone.
    Returns the partner node id or ``None``.
    """
    active: Set[NodeId] = set(g0_neighbors)
    partner: Optional[NodeId] = None
    total = 4 * iterations
    done = 0  # rounds of the fragment behind this node
    while done < total:
        if partner is not None:
            yield from _wait_out(total - done)
            break
        if woke is None and active and done % 4 == 0:
            # Round 1: random out-choice.
            ordered = sorted(active, key=repr)
            choice = ordered[rng.randrange(len(ordered))]
            inbox = yield {choice: Message("II_CHOICE")}
            done += 1
        else:
            if woke is None:
                # Listen up to the next round 1, or to the end when no
                # active neighbor is left to choose.
                until = (done // 4 + 1) * 4 if active else total
                woke = yield Await(min(until, total) - done)
            inbox, waited = woke
            woke = None
            done += waited
        phase = (done - 1) % 4  # the round ``inbox`` was delivered in
        if phase == 3:
            for s, msg in inbox.items():
                if msg.kind == "II_TAKEN":
                    active.discard(s)
            continue
        g_prime: Set[NodeId] = set()
        if phase == 0:
            incoming = sorted(
                (s for s, msg in inbox.items() if msg.kind == "II_CHOICE"),
                key=repr,
            )
            if not incoming:
                continue
            # Round 2: keep one incoming edge.
            kept_in = incoming[rng.randrange(len(incoming))]
            inbox = yield {kept_in: Message("II_KEEP")}
            done += 1
            g_prime.add(kept_in)
        elif phase == 2:
            continue  # a round-3 inbox matters only after a pick
        for s, msg in inbox.items():
            if msg.kind == "II_KEEP":
                g_prime.add(s)
        if not g_prime:
            continue
        # Round 3: pick one incident G' edge; a mutual pick marries.
        ordered = sorted(g_prime, key=repr)
        pick = ordered[rng.randrange(len(ordered))]
        inbox = yield {pick: Message("II_PICK")}
        done += 1
        if inbox.get(pick, Message("NONE")).kind == "II_PICK":
            partner = pick
            # Round 4: withdraw; the rest is waited out.
            if active:
                yield {
                    v: Message("II_TAKEN") for v in sorted(active, key=repr)
                }
                done += 1
    return partner
