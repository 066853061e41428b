"""Pinned digests of CONGEST runs that defer messages.

The committed golden files come from drop-only runs, so they never
exercise a copy of a message that lands in a later round.  These runs
do: a plan with drops, delays (up to two rounds) and duplicates plus one
crash-restart window, over lockstep delivery and over seeded link
latency, traced.  Each digest is the SHA-256 of one run's matching,
``SimulationStats``, fault records, causal-trace records, ``fault``
events and transport counters (``in_flight()`` included), so any change
to when or in which order a deferred copy lands — fault copies before
latency copies before fresh sends — changes it.

The digests were recorded from the implementation that kept fault
copies in the injector and latency copies in the async transport, and
pin that the single in-flight queue reproduces it byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.congest import AsyncEventTransport, SyncTransport
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.congest.protocols.gs_protocol import run_congest_gale_shapley
from repro.faults import FaultPlan, NodeCrash
from repro.graphs import woman_node
from repro.obs import Telemetry
from repro.trace import CausalTracer
from repro.workloads import UniformLatency
from repro.workloads.generators import complete_uniform, gnp_incomplete

PLAN = FaultPlan(
    seed=11,
    drop_rate=0.1,
    delay_rate=0.3,
    max_delay=2,
    duplicate_rate=0.3,
    crashes=(NodeCrash(woman_node(0), 2, restart_round=6),),
)

_TRANSPORTS = {
    "sync": SyncTransport,
    "async": lambda: AsyncEventTransport(UniformLatency(0, 2), link_seed=3),
}


def _asm(prefs, transport, telemetry):
    result = run_congest_asm(
        prefs, 0.5, k=4, inner_iterations=6, outer_iterations=4,
        mm_iterations=12, telemetry=telemetry, faults=PLAN,
        transport=transport,
    )
    return result.matching, result.stats, list(result.fault_trace)


def _gs(prefs, transport, telemetry):
    matching, sim = run_congest_gale_shapley(
        prefs, telemetry=telemetry, faults=PLAN, transport=transport
    )
    return matching, sim.stats, sim.faults.records


_RUNS = {
    "asm": (_asm, lambda: complete_uniform(6, seed=1)),
    "gs": (_gs, lambda: gnp_incomplete(6, 0.7, seed=2)),
}


def _transport_counters(transport):
    counters = {"in_flight": transport.in_flight()}
    if isinstance(transport, AsyncEventTransport):
        counters.update(
            deferred=transport.deferred,
            delivered_late=transport.delivered_late,
            dropped_late=transport.dropped_late,
            latency_counts=sorted(transport.latency_counts.items()),
        )
    return counters


def snapshot(protocol, transport_name):
    """Everything one traced faulty run exposes, as JSON-safe data."""
    runner, profile = _RUNS[protocol]
    transport = _TRANSPORTS[transport_name]()
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    matching, stats, fault_records = runner(profile(), transport, telemetry)
    return {
        "pairs": sorted(matching.pairs()),
        "stats": dataclasses.asdict(stats),
        "faults": fault_records,
        "trace": tracer.to_records(),
        "fault_events": [
            {k: v for k, v in record.items() if k != "t"}
            for record in telemetry.metrics.events
            if record["kind"] == "fault"
        ],
        "transport": _transport_counters(transport),
    }


def digest(snap):
    text = json.dumps(snap, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DIGESTS = {
    ("asm", "sync"):
        "69e9bc3cd11c0a7cbc32e455cad4490a6b6f8b26c009b19641f5eb39d61fce22",
    ("asm", "async"):
        "763bc668af139fb56ca5431bf0ea1ad348385addb0edaacceb73a57c47739607",
    ("gs", "sync"):
        "965a515e8c747c069117d0caf7223f76f73ab006425d3ee675347f1ee454f744",
    ("gs", "async"):
        "ebd9f5858b49719331b2063ba8c528bc36047ddb7d80dde408c5a8aa9b11006f",
}


@pytest.mark.parametrize("protocol, transport", sorted(DIGESTS))
def test_deferral_run_matches_pinned_digest(protocol, transport):
    assert digest(snapshot(protocol, transport)) == DIGESTS[
        protocol, transport
    ]


def test_runs_exercise_every_deferral_path():
    # The digests only pin the deferral paths if the runs take them:
    # fault copies that land and that are dropped late, and latency
    # copies that land and that are dropped late.
    snaps = {key: snapshot(*key) for key in DIGESTS}
    for protocol in _RUNS:
        actions = {r["action"] for r in snaps[protocol, "sync"]["faults"]}
        assert {"delay", "duplicate", "drop_late", "down"} <= actions
        late = snaps[protocol, "async"]
        assert late["transport"]["delivered_late"] > 0
        redeliveries = [r for r in late["trace"] if r["type"] == "redelivery"]
        assert any(r.get("via") == "transport" for r in redeliveries)
        assert any("via" not in r for r in redeliveries)
    assert any(
        snaps[protocol, "async"]["transport"]["dropped_late"]
        for protocol in _RUNS
    )
