"""ASM as a true CONGEST message-passing protocol.

Every player is a generator node program holding only its own
preference list and the global parameters (``k``, loop lengths, the
maximal-matching phase budget) — all derivable from ``ε`` and the
public upper bound on ``n``, as the paper requires (Section 3.1: "the
only global information known to each processor is n").

Round layout of one ProposalRound (both genders yield in lockstep):

====  =======================================  =====================
slot  men                                      women
====  =======================================  =====================
1     send PROPOSE to every w ∈ A              (listen)
2     (listen)                                 send ACCEPT to best
                                               proposing quantile
3..   maximal-matching fragment on G₀          same fragment
last  (listen)                                 send REJECT to every
                                               weakly-worse suitor
====  =======================================  =====================

A node keeps its own list as 0-based offsets with a present flag
each.  Its quantiles are runs of those offsets (Section 3.1), read
through :func:`repro.core.quantile.offset_quantile` and
:func:`~repro.core.quantile.quantile_run` as the logical backends read
theirs.

With the deterministic pointer fragment and a sufficient
maximal-matching budget, the final matching is *identical* to the
logical :class:`repro.core.asm.ASMEngine` run with the matching
deterministic oracle — the cross-validation test of DESIGN.md §4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.congest.driver import player_partner, run_protocol
from repro.congest.message import Await, Message
from repro.congest.protocols.fragments import (
    Woke,
    israeli_itai_fragment,
    pointer_matching_fragment,
    port_order_fragment,
)
from repro.congest.simulator import SimulationStats
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import offset_quantile, quantile_run
from repro.core.asm import (
    default_inner_iterations,
    default_outer_iterations,
    params_for_eps,
)
from repro.errors import InvalidParameterError
from repro.faults.injector import FaultStats
from repro.faults.plan import FaultPlan, RetryTally
from repro.graphs import (
    NodeId,
    bipartite_graph_from_edges,
    man_node,
    node_index,
    woman_node,
)

__all__ = [
    "CongestASMResult",
    "run_congest_asm",
    "run_congest_rand_asm",
    "run_congest_almost_regular_asm",
    "schedule_round_bound",
]


@dataclass(frozen=True)
class ASMSchedule:
    """The fixed global schedule every node follows.

    ``flat_schedule`` selects AlmostRegularASM's loop structure: no
    degree-threshold outer loop (``outer_iterations`` acts as the total
    QuantileMatch count and ``inner_iterations`` must be 1).
    ``remove_violators`` adds one extra round per ProposalRound in
    which women left unmatched by the (almost-)maximal matching notify
    their accepted suitors (``MM_FREE``); a man both unmatched and
    notified is a Definition-3 violator and removes himself from play
    (the footnote to Theorem 6).
    """

    k: int
    outer_iterations: int
    inner_iterations: int
    mm_iterations: int
    mm_kind: str  # "pointer" | "port_order" | "israeli_itai"
    seed: int = 0
    flat_schedule: bool = False
    remove_violators: bool = False


def _mm_fragment(
    sched: ASMSchedule,
    g0_neighbors,
    rng,
    is_left: bool,
    woke: Optional[Woke] = None,
):
    """Instantiate one maximal-matching phase fragment."""
    if sched.mm_kind == "pointer":
        return pointer_matching_fragment(
            g0_neighbors, sched.mm_iterations, woke
        )
    if sched.mm_kind == "port_order":
        return port_order_fragment(
            g0_neighbors, sched.mm_iterations, is_left, woke
        )
    if sched.mm_kind == "israeli_itai":
        return israeli_itai_fragment(
            g0_neighbors, sched.mm_iterations, rng, woke
        )
    raise InvalidParameterError(f"unknown mm_kind {sched.mm_kind!r}")


def _fragment_rounds(sched: ASMSchedule) -> int:
    """Rounds one maximal-matching phase consumes."""
    per_mm_iteration = 4 if sched.mm_kind == "israeli_itai" else 2
    return sched.mm_iterations * per_mm_iteration


def _list_state(
    pref_list: Tuple[int, ...],
) -> Tuple[Dict[int, int], bytearray]:
    """``(pos, present)``: a node's own list as 0-based offsets.

    ``pos`` maps each partner to its offset; ``present[i]`` says whether
    the partner at offset ``i`` is still in ``Q``.  ``present`` has one
    more, always-absent slot at ``deg``: ``pos.get(u, deg)`` sends an
    id that is not on the list (stray mail) there, so it reads as
    absent.
    """
    deg = len(pref_list)
    present = bytearray(b"\x01") * deg + b"\x00"
    return dict(zip(pref_list, range(deg))), present


def _man_program(
    m: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
) -> Generator:
    """The man's side of ASM (Algorithms 1–3, male role).

    A man sends only in a ProposalRound's first slot, when his active
    set ``A`` is non-empty — refilled at a QuantileMatch start if he
    is unmatched, in play and holds at least the threshold — and in
    the matching phase, when some woman accepted him.  Everywhere else
    he awaits mail, up to the next slot in which he would propose: a
    matched man waits for a REJECT, and an unmatched one below his
    threshold waits out the schedule (``|Q|`` never grows and the
    threshold never shrinks).  Mail that wakes him is read as the
    round-by-round program read it in that slot; the first slot's
    inbox is dropped unread, as there.

    His list is offsets (:func:`_list_state`): ``A`` is the present
    partners of the quantile run that holds his first present offset,
    his best nonempty quantile.
    """
    k = sched.k
    deg = len(pref_list)
    pos, present = _list_state(pref_list)
    remaining = deg  # |Q|
    first = 0  # every offset before it is absent
    partner: Optional[int] = None
    active: set = set()
    removed = False
    frag = _fragment_rounds(sched)
    length = _rounds_per_proposal_round(sched)
    qm_rounds = sched.k * length
    outer_rounds = sched.inner_iterations * qm_rounds
    total = sched.outer_iterations * outer_rounds
    at = 0  # rounds of the schedule behind this man
    # His partner from the current ProposalRound's matching phase.
    mm_partner: Optional[NodeId] = None

    def refills(start: int) -> bool:
        """Whether QuantileMatch starting at round ``start`` refills A."""
        threshold = 1 if sched.flat_schedule else 2 ** (start // outer_rounds)
        return not removed and partner is None and remaining >= threshold

    while at < total:
        if at % length == 0:
            mm_partner = None
            if at % qm_rounds == 0 and refills(at):
                # --- QuantileMatch: refill A.
                while not present[first]:  # |Q| > 0: stops before deg
                    first += 1
                end = quantile_run(offset_quantile(first, deg, k), deg, k)[1]
                active = {
                    pref_list[i] for i in range(first, end) if present[i]
                }
        if at % length == 0 and active:
            # --- ProposalRound slot 1: propose (inbox unread).
            yield {
                woman_node(w): Message("PROPOSE") for w in sorted(active)
            }
            # --- slot 2: receive ACCEPTs.
            inbox = yield {}
            at += 2
        else:
            # Listen up to the next slot in which he proposes.
            if active:
                until = (at // length + 1) * length
            else:
                until = (at // qm_rounds + 1) * qm_rounds
                if until < total and not refills(until):
                    until = total
            inbox, waited = yield Await(min(until, total) - at)
            if (at + waited - 1) // length != at // length:
                mm_partner = None
            at += waited
        j = (at - 1) % length  # the slot ``inbox`` was delivered in
        if j == 1 or 2 <= j < 2 + frag:
            # --- maximal-matching phase on G0.
            if j == 1:
                accepted_by = {
                    node_index(s)
                    for s, msg in inbox.items()
                    if msg.kind == "ACCEPT"
                }
                if not accepted_by:
                    continue  # no G0 edge: listen through the phase
                fragment = _mm_fragment(
                    sched, {woman_node(w) for w in accepted_by}, rng,
                    is_left=True,
                )
            else:
                fragment = _mm_fragment(
                    sched, set(), rng, is_left=True, woke=(inbox, j - 1)
                )
            mm_partner = yield from fragment
            at += frag if j == 1 else 1 + frag - j
            if mm_partner is not None:
                partner = node_index(mm_partner)
                active = set()
        elif sched.remove_violators and j == 2 + frag:
            # --- removal slot: unmatched women announce MM_FREE; an
            # unmatched accepted man is a Def-3 violator.
            got_free = any(msg.kind == "MM_FREE" for msg in inbox.values())
            if mm_partner is None and got_free and not removed:
                removed = True
                active = set()
        elif j == length - 1:
            # --- final slot: receive REJECTs.
            for s, msg in inbox.items():
                if msg.kind == "REJECT":
                    w = node_index(s)
                    i = pos.get(w, deg)
                    if present[i]:
                        present[i] = 0
                        remaining -= 1
                    active.discard(w)
                    if partner == w:
                        partner = None
    return partner


def _woman_program(
    w: int,
    pref_list: Tuple[int, ...],
    sched: ASMSchedule,
    rng: Optional[random.Random],
    tally: Optional[RetryTally] = None,
) -> Generator:
    """The woman's side of ASM (Algorithms 1–3, female role).

    A woman reads only her proposals (and the matching phase's mail),
    so she awaits PROPOSE for the rest of the schedule; the inboxes of
    her sending slots are dropped unread.

    Fault tolerance: a proposal from a man she has already removed
    from ``Q`` is evidence his REJECT was lost (fault-free, a rejected
    man never proposes again), so she retransmits the REJECT in the
    final slot.  The retry fires only on that evidence, keeping
    fault-free runs bit-identical; ``tally`` counts the retries.

    Her list is offsets (:func:`_list_state`): she accepts her present
    suitors before the end of the quantile run holding the smallest
    present suitor offset, and her new partner ``m0`` makes her reject
    every present offset from the start of his run on except his.
    """
    k = sched.k
    deg = len(pref_list)
    pos, present = _list_state(pref_list)
    partner: Optional[int] = None
    frag = _fragment_rounds(sched)
    length = _rounds_per_proposal_round(sched)
    total = (
        sched.outer_iterations * sched.inner_iterations * sched.k * length
    )
    at = 0  # rounds of the schedule behind this woman
    while at < total:
        inbox, waited = yield Await(total - at)
        at += waited
        j = (at - 1) % length
        accepted: set = set()
        stale: list = []
        if j == 0:
            # --- slot 1: receive proposals.
            suitors = [
                node_index(s)
                for s, msg in inbox.items()
                if msg.kind == "PROPOSE"
            ]
            offs = [pos.get(m, deg) for m in suitors]
            stale = sorted(m for m, i in zip(suitors, offs) if not present[i])
            live = [i for i in offs if present[i]]
            if live:
                best = offset_quantile(min(live), deg, k)
                end = quantile_run(best, deg, k)[1]
                accepted = {pref_list[i] for i in live if i < end}
            if not accepted and not stale:
                continue
            # --- slot 2: send ACCEPTs.
            yield {
                man_node(m): Message("ACCEPT") for m in sorted(accepted)
            }
            # --- maximal-matching phase on G0.
            mm_partner = yield from _mm_fragment(
                sched, {man_node(m) for m in accepted}, rng, is_left=False
            )
            at += 1 + frag
        elif 2 <= j < 2 + frag:
            mm_partner = yield from _mm_fragment(
                sched, set(), rng, is_left=False, woke=(inbox, j - 1)
            )
            at += 1 + frag - j
        else:
            continue  # a sending slot's inbox is unread
        # --- removal slot: announce freedom to accepted men.
        free_outbox: Dict[NodeId, Message] = {}
        if sched.remove_violators and mm_partner is None:
            free_outbox = {
                man_node(m): Message("MM_FREE") for m in sorted(accepted)
            }
        # --- final slot: reject weakly-worse suitors.
        outbox: Dict[NodeId, Message] = {}
        # p0 reads as absent when the phase left her unmatched, and when
        # it married her to a man no longer on her list: only a stray
        # delayed message in a faulty run can do that.
        p0 = deg
        if mm_partner is not None:
            p0 = pos.get(node_index(mm_partner), deg)
        if present[p0]:
            start = quantile_run(offset_quantile(p0, deg, k), deg, k)[0]
            rejected = [
                i for i in range(start, deg) if present[i] and i != p0
            ]
            for i in rejected:
                present[i] = 0
            for m in sorted(map(pref_list.__getitem__, rejected)):
                outbox[man_node(m)] = Message("REJECT")
            partner = pref_list[p0]
        # Retransmit lost REJECTs to stale suitors (see docstring);
        # never reached in a fault-free run.
        for m in stale:
            node = man_node(m)
            if node not in outbox:
                outbox[node] = Message("REJECT")
                if tally is not None:
                    tally.count += 1
        if free_outbox or outbox:
            if sched.remove_violators:
                yield free_outbox
            yield outbox
            at = (at // length + 1) * length
    return partner


@dataclass
class CongestASMResult:
    """Output of a message-level ASM run.

    ``matching`` holds the *mutually confirmed* pairs
    (:mod:`repro.congest.driver`).  A run with a
    :class:`~repro.faults.plan.FaultPlan` or a reordering transport
    reports every node whose final view is missing (crashed / timed
    out) or unconfirmed in ``unresolved_men`` / ``unresolved_women``;
    the achieved blocking-pair fraction of the degraded matching is
    what ``repro.analysis.stability`` computes over it.  The fault
    fields are populated only when the run carried a plan.
    """

    matching: Matching
    stats: SimulationStats
    schedule: ASMSchedule
    unresolved_men: Tuple[int, ...] = ()
    unresolved_women: Tuple[int, ...] = ()
    crashed_nodes: Tuple[str, ...] = ()
    retries: int = 0
    fault_stats: Optional[FaultStats] = None
    fault_trace: Tuple[Dict[str, object], ...] = ()


def _rounds_per_proposal_round(sched: ASMSchedule) -> int:
    """Exact synchronous rounds one ProposalRound consumes."""
    return (
        2  # propose + accept slots
        + _fragment_rounds(sched)
        + (1 if sched.remove_violators else 0)
        + 1  # final reject slot
    )


def schedule_round_bound(sched: ASMSchedule) -> int:
    """An upper bound on the simulator rounds ``sched`` can take.

    Programs execute a fixed number of yields (the full schedule), and
    the simulator spends one extra round observing every program
    return; a little slack covers that plus trailing deferred
    deliveries under fault injection.
    """
    yields = (
        sched.outer_iterations
        * sched.inner_iterations
        * sched.k
        * _rounds_per_proposal_round(sched)
    )
    return yields + 2


def run_congest_asm(
    prefs: PreferenceProfile,
    eps: float,
    *,
    k: Optional[int] = None,
    delta: Optional[float] = None,
    inner_iterations: Optional[int] = None,
    outer_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    mm_kind: str = "pointer",
    seed: int = 0,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """Run ASM at the message level over the CONGEST simulator.

    With ``faults``, the run degrades gracefully instead of raising on
    inconsistency: the result reports the mutually confirmed matching,
    unresolved nodes, retry counts, and the deterministic fault trace
    (see :class:`CongestASMResult` and ``docs/robustness.md``).  A
    ``transport`` that reorders delivery (nonzero latency — see
    ``docs/transport.md``) gets the same tolerant treatment.

    Defaults follow the paper: ``k = ⌈8/ε⌉``, ``δ = ε/8``, inner loop
    ``⌈2δ⁻¹k⌉``, outer loop ``⌈log₂ n⌉ + 1``, and a maximal-matching
    budget of ``n_men + n_women`` pointer iterations (always enough for
    exact maximality).  These schedules are large — use the overrides
    for anything beyond small ``n`` (the logical engine exists
    precisely to run the big cases; this protocol exists to prove the
    algorithm really is a CONGEST protocol and to cross-validate).
    """
    default_k, default_delta = params_for_eps(eps)
    k = default_k if k is None else k
    delta = default_delta if delta is None else delta
    if inner_iterations is None:
        inner_iterations = default_inner_iterations(k, delta)
    if outer_iterations is None:
        outer_iterations = default_outer_iterations(
            prefs.n_men, prefs.n_women
        )
    if mm_iterations is None:
        mm_iterations = prefs.n_men + prefs.n_women
    sched = ASMSchedule(
        k=k,
        outer_iterations=outer_iterations,
        inner_iterations=inner_iterations,
        mm_iterations=mm_iterations,
        mm_kind=mm_kind,
        seed=seed,
    )
    return _run_with_schedule(
        prefs, sched, telemetry=telemetry, faults=faults,
        transport=transport,
    )


def run_congest_rand_asm(
    prefs: PreferenceProfile,
    eps: float,
    failure_prob: float = 0.1,
    seed: int = 0,
    *,
    inner_iterations: Optional[int] = None,
    outer_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """RandASM (Theorem 5) at the message level.

    ASM's schedule with truncated Israeli–Itai matching phases; the
    per-phase iteration budget defaults to the plan of
    :func:`repro.core.rand_asm.plan_rand_asm` (``O(log(n/δε³))``
    MatchingRounds), with per-node local randomness derived from
    ``seed``.  Use the overrides for small test schedules.
    """
    from repro.core.rand_asm import plan_rand_asm

    plan = plan_rand_asm(prefs, eps, failure_prob)
    return run_congest_asm(
        prefs,
        eps,
        k=plan.k,
        delta=plan.delta_quantile,
        inner_iterations=inner_iterations,
        outer_iterations=outer_iterations,
        mm_iterations=(
            plan.iterations_per_call
            if mm_iterations is None
            else mm_iterations
        ),
        mm_kind="israeli_itai",
        seed=seed,
        telemetry=telemetry,
        faults=faults,
        transport=transport,
    )


def run_congest_almost_regular_asm(
    prefs: PreferenceProfile,
    eps: float,
    failure_prob: float = 0.1,
    alpha: Optional[float] = None,
    seed: int = 0,
    *,
    quantile_match_iterations: Optional[int] = None,
    mm_iterations: Optional[int] = None,
    mm_kind: str = "israeli_itai",
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """AlmostRegularASM (Theorem 6) at the message level.

    Flat QuantileMatch schedule (no degree thresholds), truncated
    maximal-matching phases, and local Definition-3 violator removal:
    after each matching phase, women left unmatched announce
    ``MM_FREE`` to their accepted suitors; a man both unmatched and
    notified withdraws from play — exactly the logical engine's
    ``remove_unmatched_violators`` semantics, implemented with one
    extra communication round per ProposalRound.

    Defaults derive from :func:`repro.core.almost_regular.
    plan_almost_regular`; use the overrides for small test schedules.
    """
    from repro.core.almost_regular import plan_almost_regular

    plan = plan_almost_regular(prefs, eps, failure_prob, alpha)
    if quantile_match_iterations is None:
        quantile_match_iterations = plan.quantile_match_iterations
    if mm_iterations is None:
        mm_iterations = plan.amm_iterations_per_call
    sched = ASMSchedule(
        k=plan.k,
        outer_iterations=quantile_match_iterations,
        inner_iterations=1,
        mm_iterations=mm_iterations,
        mm_kind=mm_kind,
        seed=seed,
        flat_schedule=True,
        remove_violators=True,
    )
    return _run_with_schedule(
        prefs, sched, telemetry=telemetry, faults=faults,
        transport=transport,
    )


def _run_with_schedule(
    prefs: PreferenceProfile,
    sched: ASMSchedule,
    telemetry=None,
    faults: Optional[FaultPlan] = None,
    transport=None,
) -> CongestASMResult:
    """Build the node programs for ``sched`` and run the simulation."""
    if sched.k < 1:
        raise InvalidParameterError(
            f"quantile count k must be >= 1, got {sched.k}"
        )
    programs: Dict[NodeId, Generator] = {}
    randomized = sched.mm_kind == "israeli_itai"
    seed = sched.seed
    tally = RetryTally()
    for m in range(prefs.n_men):
        rng = random.Random(f"{seed}-M-{m}") if randomized else None
        programs[man_node(m)] = _man_program(
            m, prefs.man_list(m), sched, rng
        )
    for w in range(prefs.n_women):
        rng = random.Random(f"{seed}-W-{w}") if randomized else None
        programs[woman_node(w)] = _woman_program(
            w, prefs.woman_list(w), sched, rng, tally
        )
    run = run_protocol(
        bipartite_graph_from_edges(
            prefs.iter_edges(), prefs.n_men, prefs.n_women
        ),
        programs,
        round_bound=schedule_round_bound(sched),
        telemetry=telemetry,
        faults=faults,
        transport=transport,
        tally=tally,
        partner_node=player_partner,
    )
    sim = run.sim
    injector = sim.faults
    unresolved_men, unresolved_women = run.unresolved_players()
    return CongestASMResult(
        matching=run.matching(),
        stats=sim.stats,
        schedule=sched,
        unresolved_men=unresolved_men,
        unresolved_women=unresolved_women,
        crashed_nodes=tuple(sorted(repr(v) for v in sim.crashed)),
        retries=tally.count,
        fault_stats=injector.stats if injector is not None else None,
        fault_trace=tuple(injector.records) if injector is not None else (),
    )
