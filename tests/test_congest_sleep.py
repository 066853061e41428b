"""Sleep-expansion oracle: ``yield Sleep(n)`` is ``n`` × ``yield {}``.

A node program that yields :class:`~repro.congest.message.Sleep` is
not resumed until its sleep ends.  The contract is that this changes
nothing observable: the same run with every ``Sleep(n)`` rewritten
into ``n`` empty yields — the program resumed every round, its
inboxes delivered to the rewrite and dropped there — must produce the
same matching, ``SimulationStats``, metrics, events, causal trace,
fault trace and transport counters, byte for byte.

That pins the simulator's side.  The fragments' side — that they
sleep only where no delivery could change what they do — is pinned
against ``tests/reference_fragments.py``, the fragments as they were
before they slept: the same runs with those in place must match too.

The rewrite lives on the test side only: a ``Simulator`` subclass
wraps every program before handing it to the real simulator, and the
protocol drivers are pointed at it by patching the ``Simulator`` name
they build.  Nothing in the library selects between the two paths.

The value of a rewritten ``yield Sleep(n)`` is the last of the ``n``
inboxes (the slept run gives ``None``), so a program that binds it —
one that sleeps through a round whose inbox it reads — diverges; the
negative control pins that the oracle notices.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import asdict

import pytest

from repro.congest import AsyncEventTransport, Message, Simulator, Sleep
from repro.congest.protocols import asm_protocol, gs_protocol
from repro.faults import FaultPlan, NodeCrash
from repro.graphs import Graph, man_node, woman_node
from repro.obs import Telemetry
from repro.trace import CausalTracer
from repro.workloads import complete_uniform, gnp_incomplete
from tests import reference_fragments
from tests.test_transport_equivalence import (
    _LATENCY_GRID,
    _scrub_events,
    _scrub_metrics,
)

_THIS_MODULE = sys.modules[__name__]


def _expanded(program, tally):
    """``program`` with every ``Sleep(n)`` rewritten into n ``yield {}``."""
    try:
        value = None
        while True:
            try:
                out = program.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(out, Sleep):
                tally.append(out.rounds)
                for _ in range(out.rounds):
                    value = yield {}
            else:
                value = yield out
    finally:
        program.close()


@contextlib.contextmanager
def _sleeps_expanded(tally):
    """Point every driver in use here at a simulator whose programs
    never sleep; ``tally`` collects the length of every Sleep the
    rewrite expanded, so a test can tell the slept run really slept."""

    class ExpandingSimulator(Simulator):
        def __init__(self, graph, programs, **kwargs):
            super().__init__(
                graph,
                {v: _expanded(p, tally) for v, p in programs.items()},
                **kwargs,
            )

    with pytest.MonkeyPatch.context() as mp:
        for module in (asm_protocol, gs_protocol, _THIS_MODULE):
            mp.setattr(module, "Simulator", ExpandingSimulator)
        yield


@contextlib.contextmanager
def _awake_fragments():
    """Run the protocols on the fragments that never sleep."""
    with pytest.MonkeyPatch.context() as mp:
        for name in (
            "pointer_matching_fragment",
            "port_order_fragment",
            "israeli_itai_fragment",
        ):
            mp.setattr(asm_protocol, name, getattr(reference_fragments, name))
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
# where most nodes sleep; one crash is permanent, one restarts.
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
        "events": _scrub_events(telemetry.events.to_records()),
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
    """Run ``run`` as is, with Sleeps expanded, and on the awake
    fragments; returns the three outcomes and the expanded Sleeps."""
    tally: list = []
    slept = _outcome(run)
    with _sleeps_expanded(tally):
        expanded = _outcome(run)
    with _awake_fragments():
        awake = _outcome(run)
    return slept, expanded, awake, tally


# ----------------------------------------------------------------------
# The oracle over every protocol × transport × fault plan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(_PLANS))
@pytest.mark.parametrize("transport_name", sorted(_TRANSPORTS))
@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
def test_sleep_is_invisible(protocol, transport_name, plan_name):
    def run():
        return _snapshot(protocol, transport_name, plan_name)

    slept, expanded, awake, tally = _oracle(run)
    assert slept[0] == "returned", slept
    assert slept == expanded
    assert slept == awake
    # The oracle is only as strong as the sleeping it exercised.
    assert bool(tally) == _sleeps(protocol, transport_name)


def _sleeps(protocol, transport_name):
    """Whether a run of the grid is expected to put any node to sleep."""
    if protocol == "gale-shapley":
        # Every GS round reads its inbox; there is nothing to sleep.
        return False
    # Under a fixed one-round latency no mutual choice lands in the
    # round it is checked in, so port-order and Israeli–Itai nodes never
    # match — and those fragments only let matched nodes sleep.
    return transport_name != "fixed" or protocol in (
        "asm-pointer", "almost-regular-pointer"
    )


def test_complete_market_sleeps_too():
    prefs = complete_uniform(5, seed=1)

    def run():
        matching, stats, _, _ = _asm("pointer")(prefs)
        return sorted(matching.pairs()), asdict(stats)

    slept, expanded, awake, tally = _oracle(run)
    assert slept == expanded == awake and tally


# ----------------------------------------------------------------------
# Negative control: reading a slept inbox is caught
# ----------------------------------------------------------------------


def _line():
    g = Graph()
    g.add_edge("a", "b")
    return g


def _pinger(rounds):
    for _ in range(rounds):
        yield {"b": Message("POINT", (1,))}


def _inbox_reader():
    """Sleeps through a round whose inbox it then reads (a bug)."""
    inbox = yield Sleep(2)
    heard = sorted(inbox or {})
    yield {}
    return heard


def _run_reader():
    sim = Simulator(_line(), {"a": _pinger(3), "b": _inbox_reader()})
    sim.run()
    return dict(sim.results)


def test_negative_control_reading_a_slept_inbox_fails_the_oracle():
    slept, expanded, _, tally = _oracle(_run_reader)
    assert tally == [2]
    assert slept == ("returned", {"a": None, "b": []})
    assert expanded == ("returned", {"a": None, "b": ["a"]})
    assert slept != expanded
