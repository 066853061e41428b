"""Tests for the unified telemetry layer (``repro.obs``)."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.trace import Timeline
from repro.congest.message import Message
from repro.congest.protocols import run_congest_asm
from repro.congest.simulator import Simulator
from repro.core.asm import asm
from repro.core.almost_regular import almost_regular_asm
from repro.core.rand_asm import rand_asm
from repro.dynamic import DynamicMatchingEngine
from repro.errors import InvalidParameterError
from repro.faults.harness import fault_plan_for_profile
from repro.graphs import Graph
from repro.io import load_metrics, save_metrics
from repro.obs import (
    EVENT_KINDS,
    MetricsRegistry,
    NULL_TELEMETRY,
    RunManifest,
    Telemetry,
    histogram_summary,
    percentile,
)
from repro.parallel import TrialPool, TrialSpec
from repro.trace.analysis import CausalTrace
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.trace.span import CausalTracer
from repro.workloads import ChurnConfig, churn_stream
from repro.workloads.generators import complete_uniform, gnp_incomplete

_OBSERVABILITY_DOC = (
    Path(__file__).resolve().parents[1] / "docs" / "observability.md"
)
SELFTEST = "repro.parallel.runners:selftest_trial"


def _traced_kind_counts(tracer):
    """Per-kind counts of the tracer's message records (one per send)."""
    messages = CausalTrace(tracer.records).messages()
    return dict(Counter(r["kind"] for r in messages))


def _documented_event_fields():
    """``{kind: field names}`` read from the event table in
    docs/observability.md (rows ``| `kind` | fields |``)."""
    table = {}
    for line in _OBSERVABILITY_DOC.read_text().splitlines():
        cells = line.split("|")
        kind = cells[1].strip().strip("`") if len(cells) == 4 else ""
        if kind in EVENT_KINDS:
            table[kind] = set(re.findall(r"`(\w+)`", cells[2]))
    return table


def _of_kind(telemetry, kind):
    """The registry's event records of one kind, in emission order."""
    return [r for r in telemetry.metrics.events if r["kind"] == kind]


def _summed_kinds(kind_counts):
    """Sum of ``congest_round`` ``kinds`` dicts, per kind."""
    total = Counter()
    for kinds in kind_counts:
        total.update(kinds)
    return dict(total)


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 0)
        assert reg.counters == {"a": 5, "b": 0}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 2.5)
        assert reg.gauges["g"] == 2.5

    def test_histogram_summary_stats(self):
        reg = MetricsRegistry()
        for v in [3.0, 1.0, 2.0, 4.0]:
            reg.observe("h", v)
        summary = reg.to_dict()["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0
        assert summary["mean"] == 2.5

    def test_percentile_nearest_rank(self):
        values = sorted(float(i) for i in range(1, 101))
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([7.0], 50.0) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_histogram_summary_helper(self):
        assert histogram_summary([2.0])["p95"] == 2.0

    def test_timer_records_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("t") as timer:
            pass
        assert timer.elapsed is not None and timer.elapsed >= 0.0
        assert reg.to_dict()["histograms"]["t"]["count"] == 1

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        with reg.timer("t"):
            pass
        assert reg.counters == {}
        assert reg.gauges == {}
        assert reg.histograms == {}

    def test_disabled_timer_is_shared_singleton(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.timer("a") is reg.timer("b")


# The class keeps its name so the test ids stay stable; the registry's
# ``emit`` is the one event path.
class TestEventLog:
    def test_emit_and_query(self):
        reg = MetricsRegistry()
        reg.emit(
            "congest_round", round=1, messages=2, bits=16,
            kinds={"PING": 2},
        )
        reg.emit("fault", round=1, action="drop")
        assert [(r["kind"], r["seq"]) for r in reg.events] == [
            ("congest_round", 0),
            ("fault", 1),
        ]
        assert reg.events[0]["kinds"] == {"PING": 2}

    def test_schema_is_closed(self):
        reg = MetricsRegistry()
        with pytest.raises(InvalidParameterError):
            reg.emit("not_a_kind")
        assert reg.events == []

    def test_timestamps_monotone_and_seq_dense(self):
        reg = MetricsRegistry()
        for i in range(5):
            reg.emit("congest_round", round=i)
        ts = [r["t"] for r in reg.events]
        assert ts == sorted(ts)
        assert [r["seq"] for r in reg.events] == list(range(5))

    def test_disabled_log_drops_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.emit("congest_round", round=1)
        reg.emit("not_even_validated")
        assert reg.events == []
        tracing = Telemetry.tracing(CausalTracer())
        run_congest_asm(
            complete_uniform(4, seed=0), eps=0.5,
            inner_iterations=2, outer_iterations=2, mm_iterations=4,
            telemetry=tracing,
        )
        assert tracing.tracer.records and tracing.metrics.events == []

    def test_records_are_flat_and_json_safe(self):
        reg = MetricsRegistry()
        reg.emit("congest_round", round=3, messages=1, bits=8)
        record = reg.events[0]
        assert record["kind"] == "congest_round"
        assert record["round"] == 3
        json.dumps(reg.to_dict())  # must not raise

    def test_event_inside_timer_falls_within_its_span(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            reg.emit("congest_round", round=1)
        (span,), (record,) = reg.spans, reg.events
        t_us = record["t"] * 1e6
        assert span["ts"] <= t_us <= span["ts"] + span["dur"]
        # Each ProposalRound record lands inside its QuantileMatch span.
        tel = Telemetry.create()
        asm(complete_uniform(12, seed=0), eps=0.5, telemetry=tel)
        calls = [
            (s["ts"], s["ts"] + s["dur"])
            for s in tel.metrics.spans
            if s["name"] == "asm.quantile_match"
        ]
        rounds = _of_kind(tel, "proposal_round")
        assert rounds and all(
            any(lo <= r["t"] * 1e6 <= hi for lo, hi in calls) for r in rounds
        )

    def test_raw_state_and_merge_carry_events(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.emit("trial_chunk", start=0)
        b.emit("trial_chunk", start=2)
        b.emit("trial_chunk", start=4)
        shipped = json.loads(json.dumps(b.raw_state()))
        a.merge(MetricsRegistry.from_raw_state(shipped))
        assert [(r["seq"], r["start"]) for r in a.events] == [
            (0, 0), (1, 2), (2, 4)
        ]
        assert a.events[1]["t"] == b.events[0]["t"]

    def test_schema_constant(self):
        assert EVENT_KINDS == {
            "proposal_round",
            "quantile_match",
            "outer_iteration",
            "congest_round",
            "trial_chunk",
            "fault",
            "slo_sample",
            "slo_violation",
            "dynamic_delta",
            "dynamic_fallback",
        }


class TestRunManifest:
    def test_capture_and_finish(self):
        m = RunManifest.capture(
            algorithm="asm", workload="complete", n=16, seed=3,
            params={"eps": 0.5}, note="test",
        )
        assert m.finished_at is None
        m.finish()
        d = m.to_dict()
        assert d["algorithm"] == "asm"
        assert d["params"] == {"eps": 0.5}
        assert d["extra"] == {"note": "test"}
        assert d["started_at"] <= d["finished_at"]
        assert d["python_version"].count(".") == 2

    def test_round_trip(self):
        m = RunManifest.capture(algorithm="rand-asm", n=8)
        m.finish()
        again = RunManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_record_fault_plan(self):
        from repro.faults.harness import fault_plan_for_profile
        from repro.workloads.generators import complete_uniform

        prefs = complete_uniform(6, seed=0)
        plan = fault_plan_for_profile(
            prefs,
            fault_seed=7,
            drop_rate=0.2,
            delay_rate=0.1,
            crash_nodes=1,
            crash_round=3,
            restart_after=2,
        )
        m = RunManifest.capture(algorithm="congest-asm", n=6)
        m.record_fault_plan(plan)
        faults = m.to_dict()["extra"]["faults"]
        assert faults["seed"] == 7
        assert faults["drop_rate"] == 0.2
        assert faults["delay_rate"] == 0.1
        assert len(faults["crashes"]) == 1
        crash = faults["crashes"][0]
        assert crash["round"] == 3
        assert crash["restart_round"] == 5
        json.dumps(faults)  # must be JSON-safe


class TestTelemetry:
    def test_null_telemetry_disabled(self):
        assert not NULL_TELEMETRY.enabled
        with NULL_TELEMETRY.metrics.timer("x"):
            pass
        NULL_TELEMETRY.metrics.emit("anything-goes-here")  # no-op, unvalidated
        assert NULL_TELEMETRY.metrics.histograms == {}
        assert NULL_TELEMETRY.metrics.events == []

    def test_create_enabled(self):
        tel = Telemetry.create()
        assert tel.enabled
        with tel.metrics.timer("x"):
            pass
        assert "x" in tel.metrics.histograms


class TestEnginePhaseTiming:
    def test_phases_timed_when_enabled(self):
        tel = Telemetry.create()
        result = asm(complete_uniform(12, seed=0), eps=0.5, telemetry=tel)
        hists = tel.metrics.histogram_summaries()
        for phase in (
            "asm.phase.propose",
            "asm.phase.accept_reject",
            "asm.phase.maximal_matching",
        ):
            assert phase in hists
            assert hists[phase]["count"] >= result.proposal_rounds_executed
            assert {"p50", "p95", "max"} <= set(hists[phase])

    def test_no_telemetry_means_no_observation(self):
        result = asm(complete_uniform(12, seed=0), eps=0.5)
        assert result.matching  # engine default is the shared null bundle
        assert NULL_TELEMETRY.metrics.histograms == {}
        assert NULL_TELEMETRY.metrics.events == []

    def test_telemetry_does_not_change_behavior(self):
        prefs = gnp_incomplete(16, 0.5, seed=7)
        plain = asm(prefs, 0.3)
        timed = asm(prefs, 0.3, telemetry=Telemetry.create())
        assert plain.matching == timed.matching
        assert plain.rounds_active == timed.rounds_active

    def test_variants_accept_telemetry(self):
        prefs = complete_uniform(12, seed=1)
        for runner in (
            lambda tel: rand_asm(prefs, 0.4, seed=1, telemetry=tel),
            lambda tel: almost_regular_asm(prefs, 0.4, seed=1, telemetry=tel),
        ):
            tel = Telemetry.create()
            runner(tel)
            assert "asm.phase.propose" in tel.metrics.histograms


# The class keeps its name so the test ids stay stable; the engine
# itself now writes these counters, gauges and events.
class TestMetricsObserver:
    def test_counters_match_result(self):
        tel = Telemetry.create()
        result = asm(complete_uniform(16, seed=2), eps=0.4, telemetry=tel)
        counters = tel.metrics.counters
        assert counters["asm.messages.proposes"] == result.messages.proposes
        assert counters["asm.messages.accepts"] == result.messages.accepts
        assert counters["asm.messages.rejects"] == result.messages.rejects
        assert counters["asm.proposal_rounds"] == (
            result.proposal_rounds_executed
        )
        assert counters["asm.quantile_match_calls"] == (
            result.quantile_match_calls_executed
        )
        assert counters["asm.outer_iterations"] == len(
            result.outer_iterations
        )

    def test_event_stream_schema(self):
        """Every emitter writes exactly the fields the event table in
        docs/observability.md lists, and every schema kind appears."""
        tel = Telemetry.create()
        prefs = complete_uniform(12, seed=3)
        monitor = SLOMonitor(prefs, StabilitySLO(0.001, deadline_rounds=0))
        result = asm(prefs, eps=0.5, telemetry=tel, observer=monitor)
        assert monitor.violations
        assert len(_of_kind(tel, "proposal_round")) == (
            result.proposal_rounds_executed
        )
        assert len(_of_kind(tel, "quantile_match")) == (
            result.quantile_match_calls_executed
        )
        assert len(_of_kind(tel, "outer_iteration")) == len(
            result.outer_iterations
        )
        faulty = complete_uniform(6, seed=1)
        run_congest_asm(
            faulty, 0.5, k=4, inner_iterations=4, outer_iterations=3,
            mm_iterations=12, telemetry=tel,
            faults=fault_plan_for_profile(
                faulty, fault_seed=7, drop_rate=0.2, delay_rate=0.2,
                crash_nodes=1, crash_round=2, restart_after=2,
            ),
        )
        TrialPool(workers=1, telemetry=tel).run(
            [TrialSpec.make(SELFTEST, n=i, seed=i) for i in range(2)]
        )
        market = complete_uniform(6, seed=0)
        engine = DynamicMatchingEngine(
            market, 0.5, repair_radius=0, telemetry=tel,
            slo=StabilitySLO(target_eps=0.01, deadline_rounds=0),
        )
        engine.apply_stream(churn_stream(market, ChurnConfig(steps=4), 0))
        assert engine.fallbacks == 1
        observed = {}
        for record in tel.metrics.events:
            observed.setdefault(record["kind"], set()).update(
                set(record) - {"kind", "seq", "t"}
            )
        assert set(observed) == EVENT_KINDS
        assert observed == _documented_event_fields()
        assert [r["seq"] for r in tel.metrics.events] == list(
            range(len(tel.metrics.events))
        )

    def test_final_gauges(self):
        tel = Telemetry.create()
        result = asm(complete_uniform(12, seed=4), eps=0.5, telemetry=tel)
        gauges = tel.metrics.gauges
        assert gauges["asm.matching_size"] == len(result.matching)
        assert gauges["asm.good_men"] == len(result.good_men)
        assert gauges["asm.bad_men"] == len(result.bad_men)

    def test_disabled_bundle_records_nothing(self):
        tel = Telemetry.disabled()
        asm(complete_uniform(12, seed=4), eps=0.5, telemetry=tel)
        assert tel.metrics.counters == {} and tel.metrics.gauges == {}
        assert tel.metrics.events == []


class TestSimulatorTelemetry:
    def _run_ping(self, telemetry=None):
        g = Graph()
        g.add_edge("a", "b")

        def pinger():
            for _ in range(3):
                yield {"b": Message("PING")}

        def listener():
            for _ in range(3):
                yield {}

        sim = Simulator(
            g, {"a": pinger(), "b": listener()}, telemetry=telemetry
        )
        sim.run()
        return sim

    def test_round_events_and_counters(self):
        tel = Telemetry.create()
        sim = self._run_ping(telemetry=tel)
        counters = tel.metrics.counters
        assert counters["congest.rounds"] == sim.stats.rounds
        assert counters["congest.messages"] == sim.stats.messages
        assert counters["congest.bits"] == sim.stats.total_bits
        # One record, span and observation per round that carries a
        # message; the run's final silent round leaves counters only.
        carrying = [
            (index, count)
            for index, count in enumerate(sim.stats.messages_per_round, 1)
            if count
        ]
        assert len(carrying) < sim.stats.rounds
        rounds = _of_kind(tel, "congest_round")
        assert [(r["round"], r["messages"]) for r in rounds] == carrying
        assert sum(r["messages"] for r in rounds) == sim.stats.messages
        # The round's elapsed time is its span, not a record field.
        assert all(
            sum(r["kinds"].values()) == r["messages"] and "seconds" not in r
            for r in rounds
        )
        summaries = tel.metrics.histogram_summaries()
        assert summaries["congest.round_seconds"]["count"] == len(carrying)
        assert summaries["congest.messages_per_round"]["count"] == len(
            carrying
        )
        spans = [
            s for s in tel.metrics.spans
            if s["name"] == "congest.round_seconds"
        ]
        assert len(spans) == len(carrying)

    def test_no_telemetry_default(self):
        sim = self._run_ping()
        assert sim.telemetry is NULL_TELEMETRY
        assert sim.stats.messages == 3

    def test_congest_asm_driver_threads_telemetry(self):
        tel = Telemetry.create()
        result = run_congest_asm(
            complete_uniform(4, seed=0), eps=0.5,
            inner_iterations=2, outer_iterations=2, mm_iterations=4,
            telemetry=tel,
        )
        assert tel.metrics.counters["congest.rounds"] == result.stats.rounds
        assert tel.metrics.counters["congest.messages"] == (
            result.stats.messages
        )


class TestIORoundTrip:
    def test_metrics_round_trip(self, tmp_path):
        tel = Telemetry.create(
            RunManifest.capture(algorithm="asm", n=12, params={"eps": 0.5})
        )
        result = asm(complete_uniform(12, seed=5), eps=0.5, telemetry=tel)
        tel.manifest.finish()
        path = tmp_path / "metrics.json"
        save_metrics(tel.metrics, path, tel.manifest)
        doc = load_metrics(path)
        assert doc["manifest"]["algorithm"] == "asm"
        counters = doc["metrics"]["counters"]
        assert counters["asm.messages.proposes"] == result.messages.proposes
        for phase in ("propose", "accept_reject", "maximal_matching"):
            hist = doc["metrics"]["histograms"][f"asm.phase.{phase}"]
            assert {"p50", "p95", "max"} <= set(hist)

    def test_events_round_trip_cross_checks_trace(self, tmp_path):
        tel = Telemetry.create(RunManifest.capture(algorithm="asm", n=16))
        result = asm(complete_uniform(16, seed=6), eps=0.4, telemetry=tel)
        trace = Timeline(tel.metrics.events)
        path = tmp_path / "metrics.json"
        save_metrics(tel.metrics, path, tel.manifest)
        doc = load_metrics(path)
        assert doc["manifest"]["algorithm"] == "asm"
        records = doc["metrics"]["events"]
        assert records == tel.metrics.events
        loaded_rounds = [r for r in records if r["kind"] == "proposal_round"]
        assert len(loaded_rounds) == len(trace.proposal_rounds)
        assert sum(r["proposals"] for r in loaded_rounds) == (
            result.messages.proposes
        )
        assert loaded_rounds[-1]["matching_size"] == len(result.matching)

    def test_events_round_trip_cross_checks_tracer(self, tmp_path):
        tracer = CausalTracer()
        tel = Telemetry.create(
            RunManifest.capture(algorithm="congest-asm", n=4), tracer=tracer
        )
        result = run_congest_asm(
            complete_uniform(4, seed=1), eps=0.5,
            inner_iterations=2, outer_iterations=2, mm_iterations=4,
            telemetry=tel,
        )
        path = tmp_path / "metrics.json"
        save_metrics(tel.metrics, path, tel.manifest)
        records = load_metrics(path)["metrics"]["events"]
        round_by_kind = _summed_kinds(
            r["kinds"] for r in records if r["kind"] == "congest_round"
        )
        assert round_by_kind == _traced_kind_counts(tracer)
        assert sum(round_by_kind.values()) == result.stats.messages
        round_total = sum(
            r["messages"] for r in records if r["kind"] == "congest_round"
        )
        assert round_total == result.stats.messages
