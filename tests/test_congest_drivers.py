"""The CONGEST protocol drivers: pinned results and strict assembly.

*Snapshot.*  Every driver — message-level ASM with each maximal-matching
kind, RandASM, AlmostRegularASM, Gale–Shapley and the three standalone
maximal-matching drivers — runs on one small market in three modes:
lockstep, a :class:`~repro.faults.plan.FaultPlan` with drops, a
permanent crash and a crash that restarts, and an
:class:`~repro.congest.transport.AsyncEventTransport` with nonzero
latency (the maximal-matching drivers take no transport, so they run
the first two).  Each run's assembled result — matching, unresolved
players, outcome, rounds, messages, retries, fault trace, registry
counters and a digest of its causal trace — must equal
``tests/golden/congest_drivers.json`` byte for byte.  Regenerate the
file only for a deliberate change of results::

    PYTHONPATH=src python tests/test_congest_drivers.py

*Strict mode.*  Fault-free lockstep runs raise
:class:`~repro.errors.SimulationError` on any node whose final view is
missing or not confirmed by its partner, for every protocol.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.congest import AsyncEventTransport
from repro.congest.protocols import asm_protocol, gs_protocol, mm_protocols
from repro.errors import SimulationError
from repro.faults import FaultPlan, NodeCrash
from repro.graphs import (
    Graph,
    bipartite_graph_from_edges,
    man_node,
    woman_node,
)
from repro.obs import Telemetry
from repro.parallel import TrialSpec
from repro.trace import CausalTracer
from repro.trace.harness import TRACE_TRIAL_RUNNER, run_trace_trial
from repro.workloads import UniformLatency, gnp_incomplete

GOLDEN = Path(__file__).parent / "golden" / "congest_drivers.json"

_PREFS = gnp_incomplete(6, 0.6, seed=2)
_SCHED = dict(k=4, inner_iterations=3, outer_iterations=3, mm_iterations=12)


def _asm_record(res):
    return {
        "matching": sorted(res.matching.pairs()),
        "unresolved_men": list(res.unresolved_men),
        "unresolved_women": list(res.unresolved_women),
        "crashed_nodes": list(res.crashed_nodes),
        "stats": _stats(res.stats),
        "retries": res.retries,
        "fault_stats": (
            None if res.fault_stats is None else asdict(res.fault_stats)
        ),
        "fault_trace": [dict(r) for r in res.fault_trace],
    }


def _stats(stats):
    return {
        "outcome": stats.outcome,
        "rounds": stats.rounds,
        "messages": stats.messages,
        "total_bits": stats.total_bits,
    }


def _asm(mm_kind):
    def run(prefs, **kw):
        return _asm_record(asm_protocol.run_congest_asm(
            prefs, 0.5, mm_kind=mm_kind, seed=3, **_SCHED, **kw
        ))

    return run


def _rand_asm(prefs, **kw):
    return _asm_record(asm_protocol.run_congest_rand_asm(
        prefs, 0.5, failure_prob=0.2, seed=3, inner_iterations=3,
        outer_iterations=3, mm_iterations=6, **kw,
    ))


def _almost_regular(prefs, **kw):
    return _asm_record(asm_protocol.run_congest_almost_regular_asm(
        prefs, 0.5, failure_prob=0.2, seed=3, quantile_match_iterations=4,
        mm_iterations=12, **kw,
    ))


def _gs(prefs, **kw):
    matching, sim = gs_protocol.run_congest_gale_shapley(prefs, **kw)
    injector = sim.faults
    return {
        "matching": sorted(matching.pairs()),
        "stats": _stats(sim.stats),
        "fault_trace": (
            [] if injector is None else [dict(r) for r in injector.records]
        ),
    }


def _graph(prefs):
    return bipartite_graph_from_edges(
        prefs.iter_edges(), prefs.n_men, prefs.n_women
    )


def _mm(run):
    def record(prefs, **kw):
        res = run(_graph(prefs), **kw)
        return {
            "partner": sorted(
                (repr(a), repr(b)) for a, b in res.partner.items()
            ),
            "rounds": res.rounds,
        }

    return record


_DRIVERS = {
    "asm-pointer": _asm("pointer"),
    "asm-port-order": _asm("port_order"),
    "asm-israeli-itai": _asm("israeli_itai"),
    "rand-asm": _rand_asm,
    "almost-regular": _almost_regular,
    "gale-shapley": _gs,
    "mm-pointer": _mm(mm_protocols.run_congest_deterministic_mm),
    "mm-port-order": _mm(
        lambda graph, **kw: mm_protocols.run_congest_port_order_mm(
            graph, [man_node(m) for m in range(_PREFS.n_men)], **kw
        )
    ),
    "mm-israeli-itai": _mm(
        lambda graph, **kw: mm_protocols.run_congest_israeli_itai_mm(
            graph, 6, seed=3, **kw
        )
    ),
}

#: Crashes fall inside the first ProposalRounds; one is permanent, one
#: restarts, and drops leave some views one-sided.
_FAULTS = FaultPlan(
    seed=5,
    drop_rate=0.1,
    crashes=(
        NodeCrash(man_node(0), 6),
        NodeCrash(woman_node(1), 9, restart_round=30),
    ),
)

_MODES = {
    "sync": lambda: {},
    "faults": lambda: {"faults": _FAULTS},
    "latency": lambda: {
        "transport": AsyncEventTransport(UniformLatency(0, 2), link_seed=5)
    },
}


def _cases():
    for driver in _DRIVERS:
        for mode in _MODES:
            if driver.startswith("mm-") and mode == "latency":
                continue  # the standalone MM drivers take no transport
            yield driver, mode


def _run(driver, mode):
    """One driver run's assembled result, trace digest and counters."""
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    record = _DRIVERS[driver](_PREFS, telemetry=telemetry, **_MODES[mode]())
    record["trace_sha256"] = hashlib.sha256(
        json.dumps(tracer.to_records(), sort_keys=True).encode()
    ).hexdigest()
    record["counters"] = telemetry.metrics.raw_state()["counters"]
    return record


def snapshot():
    """Every case's record, keyed ``driver/mode``."""
    return {f"{d}/{m}": _run(d, m) for d, m in _cases()}


def _dump(data):
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_drivers_match_the_committed_snapshot():
    fresh = snapshot()
    golden = json.loads(GOLDEN.read_text())
    changed = sorted(
        key for key in fresh.keys() | golden.keys()
        if _dump(fresh.get(key)) != _dump(golden.get(key))
    )
    assert not changed, f"driver results changed: {changed}"
    assert _dump(fresh) == GOLDEN.read_text()


def test_snapshot_exercises_tolerant_assembly():
    golden = json.loads(GOLDEN.read_text())
    faulty = golden["asm-pointer/faults"]
    assert faulty["crashed_nodes"] and faulty["unresolved_men"]
    assert faulty["stats"]["outcome"] == "degraded"
    latency = golden["asm-pointer/latency"]
    assert latency["counters"]["congest.transport_deferred"]


# ----------------------------------------------------------------------
# Strict mode raises for every protocol
# ----------------------------------------------------------------------


def _lying_man(liar, claim):
    """A Gale–Shapley man program factory under which man ``liar``
    returns woman ``claim`` whatever his real partner."""
    real = gs_protocol._man_program

    def program(m, pref_list, iterations):
        partner = yield from real(m, pref_list, iterations)
        return claim if m == liar else partner

    return program


def _kept(liar):
    matching, _ = gs_protocol.run_congest_gale_shapley(_PREFS)
    kept = matching.partner_of_man(liar)
    assert kept is not None
    return kept, next(
        w for w in range(_PREFS.n_women)
        if w != kept and matching.partner_of_woman(w) != liar
    )


@pytest.mark.parametrize(
    "transport", [None, AsyncEventTransport()], ids=["sync", "async-zero"]
)
def test_strict_gale_shapley_raises_on_a_one_sided_view(
    monkeypatch, transport
):
    kept, other = _kept(liar=0)
    monkeypatch.setattr(gs_protocol, "_man_program", _lying_man(0, other))
    with pytest.raises(SimulationError):
        gs_protocol.run_congest_gale_shapley(_PREFS, transport=transport)


def test_tolerant_gale_shapley_drops_the_unconfirmed_pair(monkeypatch):
    kept, other = _kept(liar=0)
    honest, _ = gs_protocol.run_congest_gale_shapley(_PREFS)
    monkeypatch.setattr(gs_protocol, "_man_program", _lying_man(0, other))
    matching, _ = gs_protocol.run_congest_gale_shapley(
        _PREFS, faults=FaultPlan()
    )
    assert matching.partner_of_man(0) is None
    assert matching.partner_of_woman(kept) is None
    assert sorted(matching.pairs()) == sorted(
        (m, w) for m, w in honest.pairs() if m != 0
    )


def test_degraded_gale_shapley_trial_reports_its_unresolved_nodes():
    """A crash-degraded Gale–Shapley trace trial reports the nodes the
    driver's assembly leaves unresolved (the crashed ('M', 2) and
    ('W', 4)), not empty sets."""
    record = run_trace_trial(
        TrialSpec.make(
            TRACE_TRIAL_RUNNER, workload="complete", n=6, seed=0,
            protocol="gs", crash_nodes=2, crash_round=2, fault_seed=1,
        )
    )
    assert record["outcome"] == "degraded"
    assert len(record["matching"]) == 3
    assert record["unresolved_men"] == [2]
    assert record["unresolved_women"] == [4]


def _claims_first_neighbor(g0_neighbors, iterations, *rest):
    """A fragment claiming its least neighbour at once, mutual or not."""
    return min(g0_neighbors, key=repr, default=None)
    yield  # a generator that sends nothing


def _path():
    graph = Graph()
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    return graph


def test_strict_maximal_matching_raises_simulation_error(monkeypatch):
    monkeypatch.setattr(
        mm_protocols, "pointer_matching_fragment", _claims_first_neighbor
    )
    # a and c both claim b; b claims a, so c's claim is one-sided.
    with pytest.raises(SimulationError):
        mm_protocols.run_congest_deterministic_mm(_path(), 2)
    res = mm_protocols.run_congest_deterministic_mm(
        _path(), 2, faults=FaultPlan()
    )
    assert res.partner == {"a": "b", "b": "a"}


if __name__ == "__main__":
    GOLDEN.write_text(_dump(snapshot()))
    print(f"wrote {GOLDEN}")
