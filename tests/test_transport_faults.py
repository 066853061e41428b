"""Fault injection × transport interaction (ISSUE 10).

The injector and the transport compose in a fixed order (fault copies,
then latency copies, then fresh sends), so:

* a zero-latency :class:`AsyncEventTransport` must produce a fault
  trace identical to the sync lockstep path under the same
  :class:`FaultPlan` — including the committed golden trace's records;
* under nonzero latency the combined run is still deterministic
  (same plan + seeds → same trace);
* crashes and partitions keep their semantics when deliveries arrive
  out of order: a transport-deferred message to a node that has since
  crashed or gone down is dropped late, never delivered.

Fault decisions are keyed by ``(round, sender, recipient)``: an outbox
holds one message per link per round, so fault records carry no
per-link sequence number.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro import cli
from repro.cli import main
from repro.congest import AsyncEventTransport, Simulator
from repro.congest.message import Message
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.faults import FaultPlan, NodeCrash, PartitionWindow
from repro.graphs import Graph
from repro.io import load_metrics
from repro.workloads import FixedLatency, GeometricLatency
from repro.workloads.generators import complete_uniform
from tests.helpers import artifact_fault_records

# Mirrors tests/test_faults.py: the committed golden trace and the CLI
# invocation whose artifact reproduces its records.
GOLDEN = Path(__file__).parent / "golden" / "fault_trace.json"
GOLDEN_ARGS = [
    "congest",
    "--n", "6",
    "--inner", "4",
    "--outer", "3",
    "--mm-iterations", "12",
    "--drop-rate", "0.2",
    "--fault-seed", "7",
]


def pinger(to, rounds):
    """Sends PING to ``to`` every round; returns nothing."""

    def program():
        for _ in range(rounds):
            yield {to: Message("PING")}

    return program()


def listener(rounds):
    """Records every inbox for ``rounds`` rounds."""

    def program():
        seen = []
        for _ in range(rounds):
            inbox = yield {}
            seen.append(dict(inbox))
        return seen

    return program()


_PLAN_KW = dict(drop_rate=0.2, delay_rate=0.1, duplicate_rate=0.1)
_SCHED = dict(k=4, inner_iterations=6, outer_iterations=4, mm_iterations=12)


def _fault_run(prefs, transport, plan=None):
    plan = plan if plan is not None else FaultPlan(seed=7, **_PLAN_KW)
    return run_congest_asm(
        prefs, 0.5, faults=plan, transport=transport, **_SCHED
    )


def _trace_fingerprint(result):
    return {
        "trace": [dict(r) for r in result.fault_trace],
        "stats": dataclasses.asdict(result.fault_stats),
        "pairs": sorted(
            (repr(a), repr(b)) for a, b in result.matching.pairs()
        ),
    }


# ----------------------------------------------------------------------
# Zero-latency transport: fault traces identical to sync
# ----------------------------------------------------------------------


class TestZeroLatencyFaultIdentity:
    def test_async_zero_fault_trace_identical_to_sync(self):
        prefs = complete_uniform(6, seed=1)
        sync = _fault_run(prefs, None)
        zero = _fault_run(prefs, AsyncEventTransport())
        assert _trace_fingerprint(zero) == _trace_fingerprint(sync)

    def test_golden_trace_reproduced_through_async_transport(
        self, tmp_path, monkeypatch
    ):
        # The CLI only builds an async transport for a nonzero latency
        # model; force a zero-latency one through the same CLI path.
        built = []

        def build_async(args):
            built.append(AsyncEventTransport())
            return built[-1]

        monkeypatch.setattr(cli, "_build_transport", build_async)
        out = tmp_path / "m.json"
        code = main(GOLDEN_ARGS + ["--metrics-out", str(out)])
        assert code == 0
        assert len(built) == 1 and built[0].kind == "async"
        golden = json.loads(GOLDEN.read_text())
        records = artifact_fault_records(load_metrics(out))
        assert json.dumps(records) == json.dumps(golden["trace"])


# ----------------------------------------------------------------------
# Nonzero latency: deterministic composition
# ----------------------------------------------------------------------


class TestLatencyFaultComposition:
    def test_faults_plus_latency_deterministic(self):
        prefs = complete_uniform(6, seed=2)
        runs = [
            _trace_fingerprint(
                _fault_run(
                    prefs,
                    AsyncEventTransport(
                        GeometricLatency(0.2, 2), link_seed=3
                    ),
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_fault_decisions_unchanged_by_transport_latency(self):
        # The injector decides fates at *send* time, before routing, so
        # in the rounds preceding any first deferred delivery (here the
        # whole of round 1) the per-link decisions agree with sync.
        prefs = complete_uniform(5, seed=4)
        plan = FaultPlan(seed=11, drop_rate=0.3)
        sync = _fault_run(prefs, None, plan)
        late = _fault_run(
            prefs, AsyncEventTransport(FixedLatency(1)), plan
        )
        first = lambda res: [
            dict(r) for r in res.fault_trace if r["round"] == 1
        ]
        assert first(late) == first(sync)


# ----------------------------------------------------------------------
# Crash / partition semantics under out-of-order delivery
# ----------------------------------------------------------------------


def chain_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def scripted_sim(plan, transport, rounds=5):
    g = chain_graph()
    programs = {
        "a": pinger("b", rounds),
        "b": listener(rounds),
        "c": listener(rounds),
    }
    return Simulator(g, programs, faults=plan, transport=transport)


class TestOutOfOrderCrashSemantics:
    def test_deferred_message_to_crashed_node_dropped_late(self):
        # Every send is deferred one round by the transport; b crashes
        # at round 2, so in-flight messages must be dropped, not
        # delivered to a dead node.
        plan = FaultPlan(seed=0, crashes=(NodeCrash("b", 2),))
        transport = AsyncEventTransport(FixedLatency(1))
        sim = scripted_sim(plan, transport)
        stats = sim.run()
        assert stats.outcome == "degraded"
        assert "b" not in sim.results
        assert transport.dropped_late >= 1
        # Nothing the transport held ever reached the crashed node.
        assert transport.deferred == (
            transport.delivered_late
            + transport.dropped_late
            + transport.in_flight()
        )

    def test_deferred_message_respects_restart_window(self):
        # b is down (crash with restart) exactly when the deferred
        # message lands: the transport drops it late.
        plan = FaultPlan(
            seed=0, crashes=(NodeCrash("b", 2, restart_round=4),)
        )
        transport = AsyncEventTransport(FixedLatency(1))
        sim = scripted_sim(plan, transport, rounds=6)
        stats = sim.run()
        assert stats.outcome == "converged"
        assert transport.dropped_late >= 1
        assert transport.delivered_late >= 1

    def test_partition_and_latency_compose(self):
        # The partition drops sends inside its window *before* the
        # transport sees them; deferred pre-window sends still deliver.
        plan = FaultPlan(
            seed=0, partitions=(PartitionWindow(2, 4, group={"a"}),)
        )
        transport = AsyncEventTransport(FixedLatency(1))
        sim = scripted_sim(plan, transport)
        sim.run()
        actions = [r["action"] for r in sim.faults.records]
        assert "drop_partition" in actions
        # Round-1's send crosses the (not yet active) cut and arrives
        # one round late, inside the window: the partition gates sends,
        # not in-flight deliveries.
        assert sim.results["b"][1] == {"a": Message("PING")}
        assert transport.delivered_late >= 1

    def test_injector_delay_preempts_transport_latency(self):
        # Delays never stack: a message the injector defers re-enters
        # delivery directly (it was already delayed once), so with
        # delay_rate=1.0 the transport sees no fresh sends to defer and
        # delivery matches the injector-only schedule exactly.
        plan = FaultPlan(seed=0, delay_rate=1.0, max_delay=1)
        transport = AsyncEventTransport(FixedLatency(1))
        sim = scripted_sim(plan, transport, rounds=6)
        sim.run()
        assert sim.faults.stats.messages_delayed > 0
        assert transport.deferred == 0
        # One one-round delay, not two: round-1's PING lands in round 2.
        assert sim.results["b"][0] == {}
        assert sim.results["b"][1] == {"a": Message("PING")}


# ----------------------------------------------------------------------
# Fault records carry no per-link sequence number
# ----------------------------------------------------------------------


class TestSequenceKeying:
    def test_simulator_sends_stay_at_seq_zero(self):
        # One outbox slot per link per round: (round, sender,
        # recipient) identifies a message, and no record needs a seq.
        prefs = complete_uniform(5, seed=3)
        result = _fault_run(prefs, None)
        assert all("seq" not in r for r in result.fault_trace)
