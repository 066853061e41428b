"""Each CONGEST round that carries a message leaves one registry record,
and the causal trace holds causes only.

The registry's ``congest_round`` records and the trace's ``message``
records are written by different hooks (the simulator's round close
and the tracer's send hook); recounting one from the other checks that
neither drops or double-counts a send, on a lockstep run, a latency
run and a faulty one.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.congest.protocols import run_congest_asm
from repro.congest.transport import AsyncEventTransport
from repro.faults.plan import FaultPlan, NodeCrash
from repro.graphs import man_node, woman_node
from repro.obs.telemetry import Telemetry
from repro.trace.span import CausalTracer
from repro.workloads.generators import complete_uniform
from repro.workloads.latency import UniformLatency

#: The record types a causal trace may hold.
CAUSES = {"message", "redelivery", "crash", "down", "restart"}

_MODES = {
    "lockstep": lambda: {},
    "latency": lambda: {
        "transport": AsyncEventTransport(UniformLatency(0, 2), link_seed=3)
    },
    "faulty": lambda: {
        "faults": FaultPlan(
            seed=5,
            drop_rate=0.1,
            delay_rate=0.1,
            crashes=(
                NodeCrash(man_node(0), 6),
                NodeCrash(woman_node(1), 9, restart_round=30),
            ),
        )
    },
}


def _traced_run(mode):
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    result = run_congest_asm(
        complete_uniform(5, seed=2), 0.5,
        k=2, inner_iterations=2, outer_iterations=2, mm_iterations=4,
        telemetry=telemetry, **_MODES[mode](),
    )
    return result, telemetry, tracer.to_records()


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_round_records_recount_from_the_trace(mode):
    result, telemetry, trace = _traced_run(mode)
    assert {r["type"] for r in trace} <= CAUSES
    sent = defaultdict(Counter)
    for record in trace:
        if record["type"] == "message":
            sent[record["round"]][record["kind"]] += 1
    recounted = {
        round_index: (sum(kinds.values()), dict(kinds))
        for round_index, kinds in sent.items()
    }
    rounds = [
        r for r in telemetry.metrics.events if r["kind"] == "congest_round"
    ]
    recorded = {r["round"]: (r["messages"], r["kinds"]) for r in rounds}
    assert len(recorded) == len(rounds)
    assert recorded == recounted
    assert sum(count for count, _ in recorded.values()) == (
        result.stats.messages
    )
    carrying = {
        index: count
        for index, count in enumerate(result.stats.messages_per_round, 1)
        if count
    }
    assert {index: count for index, (count, _) in recorded.items()} == (
        carrying
    )


def test_faulty_run_traces_every_cause():
    # The cross-check above must see each cause shape at least once.
    _, _, trace = _traced_run("faulty")
    assert {r["type"] for r in trace} == CAUSES
