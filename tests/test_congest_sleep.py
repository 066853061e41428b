"""Await oracle: ``yield Await(n)`` is up to ``n`` × ``yield {}``.

A node program that yields :class:`~repro.congest.message.Await`
sleeps: it is not resumed until mail reaches it or its ``n`` rounds
are up.  The
contract is that this changes nothing observable, and it is pinned
from both sides, each over every protocol × transport × fault plan.

*Simulator side.*  The same run with every ``Await(n)`` rewritten
into up to ``n`` empty yields that stop at the first non-empty inbox
and hand back ``(inbox, i)`` — the program resumed every round —
must produce the same matching, ``SimulationStats``, metrics, events,
causal trace, fault trace and transport counters, byte for byte.

*Program side.*  The programs' and fragments' side — that they await
only where no mail could make them send, and read an early wake's
inbox as the slot it arrived in — is pinned against
``tests/reference_protocols.py`` and ``tests/reference_fragments.py``,
the node programs as they were before they awaited: the same runs with
those in place must match too.  A fuzz drives each program and its
reference alone against random mail at every slot — stray, late and
duplicate messages of every kind, more than any grid run delivers —
and requires the same sends and result.

Both rewrites live on the test side only: the expansion is a
``Simulator`` subclass that wraps every program before handing it to
the real simulator, and the drivers are pointed at it (or at the
reference programs) by patching the names they build: the one
``Simulator`` that :mod:`repro.congest.driver` constructs, counted to
check that the patch took.  Nothing in the library selects between
the paths.  The negative control pins that a
program treating an early wake as its timer fails the oracle, and a
resumption count pins the saving itself: a player with an empty list
is resumed at most three times over a whole schedule.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import asdict

import pytest

from repro.congest import (
    MESSAGE_SCHEMAS,
    AsyncEventTransport,
    Await,
    Message,
    Simulator,
)
from repro.congest import driver
from repro.congest.protocols import (
    asm_protocol,
    fragments,
    gs_protocol,
    mm_protocols,
)
from repro.core.preferences import PreferenceProfile
from repro.faults import FaultPlan, NodeCrash
from repro.faults.plan import RetryTally
from repro.graphs import bipartite_graph_from_edges, man_node, woman_node
from repro.obs import Telemetry
from repro.trace import CausalTracer
from repro.workloads import complete_uniform, gnp_incomplete
from tests import reference_fragments, reference_protocols
from tests.test_transport_equivalence import (
    _LATENCY_GRID,
    _scrub_events,
    _scrub_metrics,
)

def _valid(wait):
    """Whether the simulator accepts ``wait`` (else it raises)."""
    return type(wait.rounds) is int and wait.rounds >= 1


def _expanded(node, program, tally):
    """``program`` with every ``Await(n)`` rewritten into up to n
    ``yield {}``; ``tally`` gets ``(n, rounds waited)`` for each."""
    try:
        value = None
        while True:
            try:
                out = program.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(out, Await) and _valid(out):
                for waited in range(1, out.rounds + 1):
                    inbox = yield {}
                    if inbox:
                        break
                tally.append((out.rounds, waited))
                value = (inbox, waited)
            else:
                value = yield out
    finally:
        program.close()


def _timer_only(node, program, tally):
    """``program`` told that every wait ran to its timer (a bug)."""
    try:
        value = None
        while True:
            try:
                out = program.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield out
            if isinstance(out, Await):
                value = (value[0], out.rounds)
    finally:
        program.close()


@contextlib.contextmanager
def _wrapped(wrap, tally):
    """Point every driver at a simulator that hands each node's program
    to ``wrap(node, program, tally)`` first.

    Yields the number of programs each such simulator wrapped, so a
    caller can check that the drivers really built it: a patch of a
    name no driver reads would wrap nothing and pass vacuously.
    """
    wrapped: list = []

    class WrappingSimulator(Simulator):
        def __init__(self, graph, programs, **kwargs):
            wrapped.append(len(programs))
            super().__init__(
                graph,
                {v: wrap(v, p, tally) for v, p in programs.items()},
                **kwargs,
            )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "Simulator", WrappingSimulator)
        yield wrapped


@contextlib.contextmanager
def _reference_programs():
    """Run the protocols on the node programs that never await."""
    with pytest.MonkeyPatch.context() as mp:
        for name in (
            "pointer_matching_fragment",
            "port_order_fragment",
            "israeli_itai_fragment",
        ):
            mp.setattr(mm_protocols, name, getattr(reference_fragments, name))
        for module, prefix in ((asm_protocol, "asm"), (gs_protocol, "gs")):
            for role in ("man", "woman"):
                mp.setattr(
                    module,
                    f"_{role}_program",
                    getattr(reference_protocols, f"{prefix}_{role}_program"),
                )
        yield


# ----------------------------------------------------------------------
# Drivers: each returns (matching, stats, fault records, extra) with the
# same keyword surface, so one snapshot covers all of them.
# ----------------------------------------------------------------------

_SCHED = dict(k=4, inner_iterations=3, outer_iterations=3)


def _asm(mm_kind):
    def run(prefs, **kw):
        res = asm_protocol.run_congest_asm(
            prefs, 0.5, mm_iterations=2 * prefs.n_men, mm_kind=mm_kind,
            seed=3, **_SCHED, **kw,
        )
        return _from_asm(res)

    return run


def _rand_asm(prefs, **kw):
    res = asm_protocol.run_congest_rand_asm(
        prefs, 0.5, failure_prob=0.2, seed=3, inner_iterations=3,
        outer_iterations=3, mm_iterations=prefs.n_men, **kw,
    )
    return _from_asm(res)


def _almost_regular(mm_kind):
    def run(prefs, **kw):
        res = asm_protocol.run_congest_almost_regular_asm(
            prefs, 0.5, failure_prob=0.2, seed=3,
            quantile_match_iterations=4, mm_iterations=2 * prefs.n_men,
            mm_kind=mm_kind, **kw,
        )
        return _from_asm(res)

    return run


def _from_asm(res):
    extra = {
        "unresolved_men": res.unresolved_men,
        "unresolved_women": res.unresolved_women,
        "crashed_nodes": res.crashed_nodes,
        "retries": res.retries,
        "fault_stats": (
            asdict(res.fault_stats) if res.fault_stats is not None else None
        ),
    }
    return res.matching, res.stats, list(res.fault_trace), extra


def _gs(prefs, **kw):
    matching, sim = gs_protocol.run_congest_gale_shapley(prefs, **kw)
    injector = sim.faults
    records = list(injector.records) if injector is not None else []
    return matching, sim.stats, records, {"results": sorted(
        (repr(v), repr(r)) for v, r in sim.results.items()
    )}


_PROTOCOLS = {
    "asm-pointer": _asm("pointer"),
    "asm-port-order": _asm("port_order"),
    "rand-asm": _rand_asm,
    "almost-regular": _almost_regular("israeli_itai"),
    "almost-regular-pointer": _almost_regular("pointer"),
    "gale-shapley": _gs,
}

_TRANSPORTS = {
    "sync": lambda: None,
    "async-zero": lambda: AsyncEventTransport(),
    **{
        model.kind: (lambda m=model: AsyncEventTransport(m, link_seed=5))
        for model in _LATENCY_GRID
    },
}

# Crash rounds fall inside the first ProposalRounds' matching phases,
# where most nodes await; one crash is permanent, one restarts.
_PLANS = {
    "none": None,
    "message-faults": FaultPlan(
        seed=11, drop_rate=0.1, delay_rate=0.1, duplicate_rate=0.1,
        max_delay=3,
    ),
    "crashes": FaultPlan(
        seed=4,
        crashes=(
            NodeCrash(man_node(0), 6),
            NodeCrash(woman_node(1), 9, restart_round=40),
            NodeCrash(man_node(2), 30),
        ),
    ),
}

_PREFS = gnp_incomplete(6, 0.6, seed=2)


def _snapshot(protocol, transport_name, plan_name):
    """Every observable output of one run (wall-clock fields scrubbed)."""
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    transport = _TRANSPORTS[transport_name]()
    kwargs = dict(telemetry=telemetry, transport=transport)
    if _PLANS[plan_name] is not None:
        kwargs["faults"] = _PLANS[plan_name]
    matching, stats, fault_trace, extra = _PROTOCOLS[protocol](
        _PREFS, **kwargs
    )
    return {
        "pairs": sorted((repr(a), repr(b)) for a, b in matching.pairs()),
        "stats": asdict(stats),
        "metrics": _scrub_metrics(telemetry.metrics.raw_state()),
        "events": _scrub_events(telemetry.metrics.events),
        "trace": tracer.to_records(),
        "fault_trace": fault_trace,
        "transport": (
            None
            if transport is None
            else {
                "deferred": transport.deferred,
                "delivered_late": transport.delivered_late,
                "dropped_late": transport.dropped_late,
                "latency_counts": transport.latency_counts,
                "in_flight": transport.in_flight(),
            }
        ),
        "extra": extra,
    }


def _outcome(run):
    """``run()``'s value, or the exception it raised, as comparable data."""
    try:
        return ("returned", run())
    except Exception as exc:  # the oracle compares failures too
        return ("raised", type(exc).__name__, str(exc))


def _oracle(run):
    """Run ``run`` as is, with Awaits expanded, and on the reference
    programs; returns the three outcomes and the expanded Awaits."""
    tally: list = []
    awaited = _outcome(run)
    with _wrapped(_expanded, tally) as wrapped:
        expanded = _outcome(run)
    assert len(wrapped) == 1 and wrapped[0] > 0, wrapped
    with _reference_programs():
        reference = _outcome(run)
    return awaited, expanded, reference, tally


# ----------------------------------------------------------------------
# The oracle over every protocol × transport × fault plan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(_PLANS))
@pytest.mark.parametrize("transport_name", sorted(_TRANSPORTS))
@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
def test_sleep_is_invisible(protocol, transport_name, plan_name):
    def run():
        return _snapshot(protocol, transport_name, plan_name)

    awaited, expanded, reference, tally = _oracle(run)
    assert awaited[0] == "returned", awaited
    assert awaited == expanded
    assert awaited == reference
    # The oracle is only as strong as the waiting it exercised: every
    # run awaits, and mail cuts some of those waits short.
    assert any(waited < rounds for rounds, waited in tally)


_MM_RUNS = {
    "pointer": lambda graph, **kw: mm_protocols.run_congest_deterministic_mm(
        graph, **kw
    ),
    "port-order": lambda graph, **kw: mm_protocols.run_congest_port_order_mm(
        graph, [man_node(m) for m in range(_PREFS.n_men)], **kw
    ),
    "israeli-itai": lambda graph, **kw: (
        mm_protocols.run_congest_israeli_itai_mm(graph, 6, seed=3, **kw)
    ),
}


@pytest.mark.parametrize("plan_name", sorted(_PLANS))
@pytest.mark.parametrize("kind", sorted(_MM_RUNS))
def test_standalone_matching_awaits_invisibly(kind, plan_name):
    graph = bipartite_graph_from_edges(
        _PREFS.iter_edges(), _PREFS.n_men, _PREFS.n_women
    )

    def run():
        tracer = CausalTracer()
        telemetry = Telemetry.create(tracer=tracer)
        kwargs = dict(telemetry=telemetry)
        if _PLANS[plan_name] is not None:
            kwargs["faults"] = _PLANS[plan_name]
        res = _MM_RUNS[kind](graph, **kwargs)
        return {
            "partner": sorted(
                (repr(a), repr(b)) for a, b in res.partner.items()
            ),
            "rounds": res.rounds,
            "metrics": _scrub_metrics(telemetry.metrics.raw_state()),
            "events": _scrub_events(telemetry.metrics.events),
            "trace": tracer.to_records(),
        }

    awaited, expanded, reference, tally = _oracle(run)
    assert awaited[0] == "returned", awaited
    assert awaited == expanded == reference
    assert tally


def test_complete_market_sleeps_too():
    prefs = complete_uniform(5, seed=1)

    def run():
        matching, stats, _, _ = _asm("pointer")(prefs)
        return sorted(matching.pairs()), asdict(stats)

    awaited, expanded, reference, tally = _oracle(run)
    assert awaited == expanded == reference and tally


# ----------------------------------------------------------------------
# Program side, fuzzed: one node program against random mail
# ----------------------------------------------------------------------

_KINDS = sorted(MESSAGE_SCHEMAS)


def _drive(program, inboxes):
    """Run one node program against ``inboxes`` — the mail each round
    delivers to it — with its Awaits expanded as the simulator keeps
    them; returns what it sent each round and how it ended."""
    sent = []
    value = None
    wait = None  # [rounds, rounds waited] of the Await in progress
    try:
        for inbox in inboxes:
            if wait is None:
                out = program.send(value)
                if isinstance(out, Await):
                    wait = [out.rounds, 0]
                    out = {}
                sent.append(dict(out))
            else:
                sent.append({})
            if wait is None:
                value = dict(inbox)
                continue
            wait[1] += 1
            if inbox or wait[1] == wait[0]:
                value = (dict(inbox), wait[1])
                wait = None
        if wait is None:
            program.send(value)
        return sent, ("still running", wait)
    except StopIteration as stop:
        return sent, ("returned", stop.value)
    except Exception as exc:  # both sides must fail alike
        return sent, ("raised", type(exc).__name__, str(exc))


def _random_mail(rng, senders, rounds, density):
    """``rounds`` inboxes, each non-empty with probability ``density``,
    from random ``senders`` with random message kinds."""
    mail = []
    for _ in range(rounds):
        inbox = {}
        if rng.random() < density:
            for _ in range(rng.randint(1, 3)):
                inbox[rng.choice(senders)] = Message(rng.choice(_KINDS))
        mail.append(inbox)
    return mail


def _schedules():
    for mm_kind in ("pointer", "port_order", "israeli_itai"):
        yield asm_protocol.ASMSchedule(
            k=3, outer_iterations=2, inner_iterations=2, mm_iterations=3,
            mm_kind=mm_kind,
        )
        yield asm_protocol.ASMSchedule(
            k=3, outer_iterations=3, inner_iterations=1, mm_iterations=2,
            mm_kind=mm_kind, flat_schedule=True, remove_violators=True,
        )


def _pairs(seed):
    """(name, product program, reference program, their senders,
    rounds) for every node program, built alike from ``seed``."""
    lists = ((0, 2, 3), (1,), (3, 0, 1, 2, 4))
    for sched in _schedules():
        rounds = (
            sched.outer_iterations * sched.inner_iterations * sched.k
            * asm_protocol._rounds_per_proposal_round(sched)
        )
        tag = f"{sched.mm_kind}{'-flat' if sched.flat_schedule else ''}"
        for i, pref in enumerate(lists):
            for role, node in (("man", woman_node), ("woman", man_node)):
                pair = [
                    getattr(module, name)(
                        i, pref, sched, random.Random(seed),
                        *([RetryTally()] if role == "woman" else []),
                    )
                    for module, name in (
                        (asm_protocol, f"_{role}_program"),
                        (reference_protocols, f"asm_{role}_program"),
                    )
                ]
                senders = [node(p) for p in pref] + [node(7)]
                yield (f"asm-{tag}-{role}", *pair, senders, rounds)
    for i, pref in enumerate(lists):
        rank = {m: r for r, m in enumerate(pref, 1)}
        yield (
            "gs-man",
            gs_protocol._man_program(i, pref, 5),
            reference_protocols.gs_man_program(i, pref, 5),
            [woman_node(p) for p in pref] + [woman_node(7)],
            10,
        )
        yield (
            "gs-woman",
            gs_protocol._woman_program(i, rank, 5),
            reference_protocols.gs_woman_program(i, rank, 5),
            [man_node(p) for p in pref],
            10,
        )
        for name, per_iteration, extra in (
            ("pointer_matching_fragment", 2, ()),
            ("port_order_fragment", 2, (True,)),
            ("port_order_fragment", 2, (False,)),
            ("israeli_itai_fragment", 4, (random.Random(seed),)),
        ):
            nbrs = [woman_node(p) for p in pref]
            product = getattr(fragments, name)(nbrs, 3, *extra)
            extra = tuple(
                random.Random(seed) if isinstance(x, random.Random) else x
                for x in extra
            )
            reference = getattr(reference_fragments, name)(nbrs, 3, *extra)
            yield (
                name, product, reference, nbrs + [woman_node(7)],
                3 * per_iteration,
            )


@pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
@pytest.mark.parametrize("seed", range(12))
def test_programs_match_the_reference_under_random_mail(seed, density):
    # Stray mail at every slot — what latency and faults deliver, and
    # more — must meet the same response from a program that awaits
    # as from the one that listens slot by slot.
    rng = random.Random(f"{seed}-{density}")
    for name, product, reference, senders, rounds in _pairs(seed):
        mail = _random_mail(rng, senders, rounds, density)
        assert _drive(product, mail) == _drive(reference, mail), name


# ----------------------------------------------------------------------
# Negative control: treating an early wake as the timer is caught
# ----------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["asm-pointer", "gale-shapley"])
def test_negative_control_an_early_wake_read_as_the_timer_fails(protocol):
    def run():
        return _snapshot(protocol, "sync", "none")

    awaited, _, reference, _ = _oracle(run)
    assert awaited == reference
    with _wrapped(_timer_only, None) as wrapped:
        confused = _outcome(run)
    assert wrapped == [_PREFS.n_men + _PREFS.n_women]
    assert confused != reference


# ----------------------------------------------------------------------
# The saving, pinned structurally
# ----------------------------------------------------------------------


def _counted(node, program, tally):
    """``program`` counting its resumptions into ``tally[node]``."""
    tally[node] = 0
    try:
        value = None
        while True:
            tally[node] += 1
            try:
                out = program.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield out
    finally:
        program.close()


#: Man 1 and woman 2 have empty lists; the others form a 2×2 market.
_WITH_EMPTY_LISTS = PreferenceProfile(
    [[0, 1], [], [1, 0]], [[0, 2], [2, 0], []]
)


@pytest.mark.parametrize("protocol", ["asm", "gale-shapley"])
def test_a_player_with_an_empty_list_is_resumed_at_most_three_times(
    protocol,
):
    # Slot by slot, such a player is resumed about four times per
    # ProposalRound (two per Gale–Shapley iteration); awaiting, it is
    # resumed to start, when its one wait runs out, and not in between.
    def run():
        if protocol == "asm":
            res = asm_protocol.run_congest_asm(
                _WITH_EMPTY_LISTS, 0.5, k=4, inner_iterations=3,
                outer_iterations=3, mm_iterations=4,
            )
            return res.stats.rounds
        _, sim = gs_protocol.run_congest_gale_shapley(
            _WITH_EMPTY_LISTS, iterations=12
        )
        return sim.stats.rounds

    tally: dict = {}
    with _wrapped(_counted, tally) as wrapped:
        rounds = run()
    assert wrapped == [len(tally)] == [6]
    assert rounds > 24
    assert tally[man_node(1)] <= 3
    assert tally[woman_node(2)] <= 3
