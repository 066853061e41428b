"""Causal message tracing: id derivation, head discipline, fault
annotation, and the traced-run determinism guarantees (bit-identical
traces; disabled mode identical to untraced runs)."""

from __future__ import annotations

import json

import pytest

from repro.congest.protocols import run_congest_asm, run_congest_gale_shapley
from repro.faults.harness import fault_plan_for_profile
from repro.faults.injector import _DROP_ACTIONS
from repro.obs.telemetry import Telemetry
from repro.trace.span import (
    DROP_ACTIONS,
    ROOT_PARENT,
    CausalTracer,
    derive_trace_id,
)
from repro.workloads.generators import complete_uniform


def _traced_asm(n=4, eps=0.5, seed=0, drop_rate=0.25, fault_seed=7):
    prefs = complete_uniform(n, seed=seed)
    tracer = CausalTracer()
    telemetry = Telemetry.tracing(tracer=tracer)
    plan = fault_plan_for_profile(
        prefs, fault_seed=fault_seed, drop_rate=drop_rate
    )
    result = run_congest_asm(
        prefs,
        eps,
        k=2,
        inner_iterations=2,
        outer_iterations=2,
        mm_iterations=4,
        telemetry=telemetry,
        faults=plan,
    )
    return prefs, result, tracer


class TestDeriveTraceId:
    def test_pure_function(self):
        a = derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE")
        b = derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE")
        assert a == b

    def test_sensitive_to_parent_and_coordinates(self):
        base = derive_trace_id("root", 1, "a", "b", "PROPOSE")
        assert derive_trace_id("other", 1, "a", "b", "PROPOSE") != base
        assert derive_trace_id("root", 2, "a", "b", "PROPOSE") != base
        assert derive_trace_id("root", 1, "a", "b", "ACCEPT") != base

    def test_shape(self):
        tid = derive_trace_id("root", 1)
        assert len(tid) == 16
        int(tid, 16)  # must be hex


class TestDropActionsMirror:
    def test_matches_injector(self):
        # span.py inlines the drop-action set to stay import-light;
        # this pins the mirror to the injector's source of truth.
        assert DROP_ACTIONS == _DROP_ACTIONS


class TestCausalTracerUnit:
    def test_first_send_is_a_chain_root(self):
        tracer = CausalTracer()
        tid = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        record = tracer.message(tid)
        assert record["parent"] == ""
        assert record["fate"] == "delivered"
        expected = derive_trace_id(
            ROOT_PARENT, 1, repr(("M", 0)), repr(("W", 1)), "PROPOSE"
        )
        assert tid == expected

    def test_head_updates_apply_at_end_round(self):
        tracer = CausalTracer()
        tid1 = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        tracer.on_delivered(("W", 1), tid1)
        # Same round: the delivery must NOT yet parent W1's sends
        # (lockstep — W1 only reads its inbox next round).
        tid_same = tracer.on_send(1, ("W", 1), ("M", 0), "ACCEPT")
        assert tracer.message(tid_same)["parent"] == ""
        tracer.end_round(1)
        tid2 = tracer.on_send(2, ("W", 1), ("M", 0), "ACCEPT")
        assert tracer.message(tid2)["parent"] == tid1

    def test_drop_fault_annotation(self):
        tracer = CausalTracer()
        tid = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        tracer.on_fault(
            tid,
            {
                "round": 1,
                "action": "drop",
                "from": repr(("M", 0)),
                "to": repr(("W", 1)),
                "message": "PROPOSE",
            },
        )
        record = tracer.message(tid)
        assert record["fate"] == "dropped"
        assert record["fault"] == "drop"

    def test_delay_defers_then_redelivers(self):
        tracer = CausalTracer()
        tid = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        tracer.on_fault(
            tid,
            {
                "round": 1,
                "action": "delay",
                "from": repr(("M", 0)),
                "to": repr(("W", 1)),
                "message": "PROPOSE",
                "until": 3,
            },
        )
        assert tracer.message(tid)["fate"] == "deferred"
        assert tracer.message(tid)["until"] == 3
        tracer.end_round(1)
        tracer.on_redelivery(3, tid, repr(("W", 1)))
        assert tracer.records[-1] == {
            "type": "redelivery", "round": 3, "id": tid,
            "to": repr(("W", 1)),
        }
        # The head moves at end_round, not on landing.
        assert tracer.head_of(("W", 1)) == ""
        tracer.end_round(3)
        assert tracer.head_of(("W", 1)) == tid

    def test_deferred_drop_marks_drop_late(self):
        tracer = CausalTracer()
        tid = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        tracer.on_fault(
            tid,
            {
                "round": 1,
                "action": "delay",
                "from": repr(("M", 0)),
                "to": repr(("W", 1)),
                "message": "PROPOSE",
                "until": 3,
            },
        )
        tracer.on_late_drop(tid)
        record = tracer.message(tid)
        assert record["fate"] == "dropped"
        assert record["fault"] == "drop_late"
        # A lost copy leaves no redelivery and moves no head.
        assert [r["type"] for r in tracer.records] == ["message"]
        tracer.end_round(3)
        assert tracer.head_of(("W", 1)) == ""

    def test_unknown_deferred_delivery_is_ignored(self):
        tracer = CausalTracer()
        tracer.on_late_drop("0" * 16)
        assert tracer.records == []

    def test_latency_redelivery_is_marked_via_transport(self):
        tracer = CausalTracer()
        tid = tracer.on_send(1, ("M", 0), ("W", 1), "PROPOSE")
        tracer.on_transport_defer(tid, 3, 2)
        record = tracer.message(tid)
        assert (record["fate"], record["until"], record["latency"]) == (
            "deferred", 3, 2
        )
        tracer.on_redelivery(3, tid, repr(("W", 1)), "transport")
        assert tracer.records[-1]["via"] == "transport"
        tracer.end_round(3)
        assert tracer.head_of(("W", 1)) == tid

    def test_node_fault_records(self):
        tracer = CausalTracer()
        tracer.on_node_fault(
            {"round": 3, "action": "crash", "node": repr(("M", 1))}
        )
        tracer.on_node_fault(
            {
                "round": 3,
                "action": "down",
                "node": repr(("M", 2)),
                "until": 5,
            }
        )
        kinds = [r["type"] for r in tracer.records]
        assert kinds == ["crash", "down"]
        assert tracer.records[1]["until"] == 5

    def test_quiet_round_emits_no_spans(self):
        tracer = CausalTracer()
        tracer.end_round(1)
        assert len(tracer) == 0

    def test_merge_tags_records(self):
        a = CausalTracer()
        a.on_send(1, ("M", 0), ("W", 0), "PROPOSE")
        merged = CausalTracer()
        merged.merge(a.to_records(), trial=3)
        assert merged.records[0]["trial"] == 3
        assert merged.records[0]["type"] == "message"

    def test_roundtrip_from_records(self):
        a = CausalTracer()
        tid = a.on_send(1, ("M", 0), ("W", 0), "PROPOSE")
        b = CausalTracer.from_records(a.to_records())
        assert b.message(tid)["id"] == tid
        assert b.to_records() == a.to_records()


class TestTracedRuns:
    def test_trace_is_bit_identical_across_runs(self):
        _, _, t1 = _traced_asm()
        _, _, t2 = _traced_asm()
        assert json.dumps(t1.to_records()) == json.dumps(t2.to_records())

    def test_tracing_does_not_change_the_run(self):
        prefs = complete_uniform(4, seed=0)
        plan = fault_plan_for_profile(prefs, fault_seed=7, drop_rate=0.25)
        kwargs = dict(
            k=2,
            inner_iterations=2,
            outer_iterations=2,
            mm_iterations=4,
        )
        plain = run_congest_asm(prefs, 0.5, faults=plan, **kwargs)
        plan2 = fault_plan_for_profile(prefs, fault_seed=7, drop_rate=0.25)
        traced = run_congest_asm(
            prefs,
            0.5,
            telemetry=Telemetry.tracing(tracer=CausalTracer()),
            faults=plan2,
            **kwargs,
        )
        assert sorted(plain.matching.pairs()) == sorted(
            traced.matching.pairs()
        )
        assert plain.stats.rounds == traced.stats.rounds
        assert plain.stats.messages == traced.stats.messages
        assert plain.stats.outcome == traced.stats.outcome

    def test_every_parent_resolves_or_is_root(self):
        _, _, tracer = _traced_asm()
        ids = {
            r["id"] for r in tracer.records if r.get("type") == "message"
        }
        for record in tracer.records:
            if record.get("type") != "message":
                continue
            parent = record.get("parent")
            assert parent == "" or parent in ids

    def test_dropped_messages_are_annotated(self):
        _, result, tracer = _traced_asm()
        dropped = [
            r
            for r in tracer.records
            if r.get("type") == "message" and r.get("fate") == "dropped"
        ]
        assert dropped, "drop_rate=0.25 must kill something"
        assert all(r.get("fault") for r in dropped)
        assert len(dropped) == result.fault_stats.messages_dropped

    def test_traced_gs_protocol(self):
        prefs = complete_uniform(4, seed=1)
        tracer = CausalTracer()
        matching, sim = run_congest_gale_shapley(
            prefs, telemetry=Telemetry.tracing(tracer=tracer)
        )
        assert len(matching) == 4
        sends = [r for r in tracer.records if r["type"] == "message"]
        assert len(sends) == sim.stats.messages

    def test_json_safety(self):
        _, _, tracer = _traced_asm()
        json.dumps(tracer.to_records())  # must not raise


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
