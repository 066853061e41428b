"""Profiling through the metrics registry: timer spans and their
nesting, the wall-free summary, merges that keep one Chrome lane per
trial, the Chrome export, and the spans the trace command's artifact
carries.

The class and test names predate the registry (they pinned a separate
phase profiler); they are kept so the test ids stay stable.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.asm import asm
from repro.io import load_metrics
from repro.obs.metrics import MetricsRegistry, chrome_trace_document
from repro.obs.telemetry import Telemetry
from repro.workloads.generators import complete_uniform


def _timed(*names):
    """A registry that ran one (sequential) timer per name."""
    registry = MetricsRegistry()
    for name in names:
        with registry.timer(name):
            pass
    return registry


class TestPhaseTimer:
    def test_phase_records_and_counts(self):
        registry = MetricsRegistry()
        with registry.timer("work") as timer:
            pass
        (span,) = registry.spans
        assert set(span) == {"name", "ts", "dur", "depth"}
        assert span["name"] == "work"
        assert span["dur"] >= 0 and span["ts"] >= 0
        assert span["dur"] == round(timer.elapsed * 1e6, 3)
        assert registry.histograms["work"] == [timer.elapsed]

    def test_record_span_matches_a_timer(self):
        registry = MetricsRegistry()
        with registry.timer("outer"):
            registry.record_span("by_hand", registry._t0 + 0.5, 0.25)
        by_hand = registry.spans[0]
        assert by_hand == {
            "name": "by_hand", "ts": 500000.0, "dur": 250000.0, "depth": 1
        }
        assert registry.histograms["by_hand"] == [0.25]
        disabled = MetricsRegistry(enabled=False)
        disabled.record_span("by_hand", 0.0, 1.0)
        assert disabled.spans == [] and not disabled.histograms

    def test_nesting_depth(self):
        registry = MetricsRegistry()
        with registry.timer("outer"):
            with registry.timer("middle"):
                with registry.timer("inner"):
                    pass
            with registry.timer("sibling"):
                pass
        depth = {s["name"]: s["depth"] for s in registry.spans}
        assert depth == {"outer": 0, "middle": 1, "inner": 2, "sibling": 1}
        # Spans close innermost first.
        assert [s["name"] for s in registry.spans] == [
            "inner", "middle", "sibling", "outer"
        ]

    def test_record_and_count(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.5)
        registry.inc("index.rescan", 7)
        registry.inc("index.rescan", 3)
        assert registry.counters == {"index.rescan": 10}
        assert registry.spans == []  # only timers emit spans

    def test_registry_feed(self):
        telemetry = Telemetry.create()
        with telemetry.metrics.timer("asm.phase.propose"):
            pass
        assert len(telemetry.metrics.histograms["asm.phase.propose"]) == 1
        assert [s["name"] for s in telemetry.metrics.spans] == [
            "asm.phase.propose"
        ]

    def test_tracing_bundle_skips_registry(self):
        telemetry = Telemetry.tracing()
        assert not telemetry.enabled
        with telemetry.metrics.timer("asm.phase.propose"):
            pass
        assert not telemetry.metrics.histograms
        assert telemetry.metrics.spans == []


class TestDeterministicSummary:
    def test_no_wall_fields(self):
        registry = _timed("work", "work")
        registry.inc("items", 3)
        registry.set_gauge("size", 1.5)
        assert registry.summary() == {
            "calls": {"work": 2},
            "counters": {"items": 3},
        }

    def test_summary_is_bit_identical_across_runs(self):
        def one_run():
            telemetry = Telemetry.create()
            asm(complete_uniform(12, seed=0), 0.25, telemetry=telemetry)
            return telemetry.metrics.summary()

        assert json.dumps(one_run()) == json.dumps(one_run())

    def test_sorted_keys(self):
        registry = _timed("z", "a")
        registry.inc("y")
        registry.inc("b")
        summary = registry.summary()
        assert list(summary) == ["calls", "counters"]
        assert list(summary["calls"]) == ["a", "z"]
        assert list(summary["counters"]) == ["b", "y"]


class TestMergeSummaries:
    def test_addition(self):
        a = _timed("p", "p")
        a.inc("x", 3)
        b = _timed("p", "q")
        b.inc("x", 1)
        b.inc("y", 5)
        a.merge(b)
        assert a.summary() == {
            "calls": {"p": 3, "q": 1},
            "counters": {"x": 4, "y": 5},
        }

    def test_order_independent(self):
        def pair():
            a = _timed("p")
            a.inc("x", 3)
            b = _timed("q")
            b.inc("y", 1)
            return a, b

        a, b = pair()
        a.merge(b)
        c, d = pair()
        d.merge(c)
        assert a.summary() == d.summary()

    def test_empty(self):
        registry = _timed("p")
        before = registry.raw_state()
        registry.merge(MetricsRegistry())
        assert registry.raw_state() == before
        assert MetricsRegistry().summary() == {"calls": {}, "counters": {}}


class TestChromeExport:
    def test_document_shape(self):
        registry = _timed("work")
        doc = chrome_trace_document(registry.spans)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["name"] == "work"
        assert event["pid"] == 0 and event["tid"] == 0
        assert event["ts"] == registry.spans[0]["ts"]
        assert event["dur"] == registry.spans[0]["dur"]
        json.dumps(doc)  # must be JSON-safe

    def test_merged_records_keep_their_lane(self):
        merged = MetricsRegistry()
        for _ in range(3):
            merged.merge(_timed("work", "work"))
        doc = chrome_trace_document(merged.spans)
        assert [e["tid"] for e in doc["traceEvents"]] == [0, 0, 1, 1, 2, 2]

    def test_raw_state_round_trip_keeps_spans_and_lanes(self):
        trials = [_timed("outer"), _timed("outer", "inner")]
        shipped = [json.loads(json.dumps(t.raw_state())) for t in trials]
        rebuilt = [MetricsRegistry.from_raw_state(s) for s in shipped]
        for trial, copy in zip(trials, rebuilt):
            assert copy.spans == trial.spans
        merged = MetricsRegistry()
        for copy in rebuilt:
            merged.merge(copy)
        assert [(s["name"], s["tid"]) for s in merged.spans] == [
            ("outer", 0), ("outer", 1), ("inner", 1)
        ]
        # A merged registry merges on as a block of lanes.
        twice = MetricsRegistry()
        twice.merge(merged)
        twice.merge(MetricsRegistry.from_raw_state(merged.raw_state()))
        assert [s["tid"] for s in twice.spans] == [0, 1, 1, 2, 3, 3]


class TestEngineIntegration:
    def test_asm_phases_show_up(self):
        telemetry = Telemetry.create()
        asm(complete_uniform(12, seed=0), 0.25, telemetry=telemetry)
        summary = telemetry.metrics.summary()
        for phase in (
            "asm.outer_iteration",
            "asm.quantile_match",
            "asm.phase.propose",
            "asm.phase.accept_reject",
            "asm.phase.maximal_matching",
        ):
            assert summary["calls"][phase] > 0, phase
        assert summary["counters"]["asm.messages.proposes"] > 0
        # ProposalRound phases nest inside QuantileMatch, which nests
        # inside the outer iteration.
        depth = {s["name"]: s["depth"] for s in telemetry.metrics.spans}
        assert depth["asm.outer_iteration"] == 0
        assert depth["asm.quantile_match"] == 1
        assert depth["asm.phase.propose"] == 2

    def test_disabled_profiler_records_nothing(self):
        result = asm(complete_uniform(8, seed=0), 0.25)  # NULL telemetry
        assert result.matching is not None
        telemetry = Telemetry.disabled()
        asm(complete_uniform(8, seed=0), 0.25, telemetry=telemetry)
        assert telemetry.metrics.spans == []
        assert not telemetry.metrics.histograms


class TestTraceCommandSpans:
    def test_one_round_span_per_message_round_on_each_trial_lane(
        self, tmp_path, capsys
    ):
        out = tmp_path / "m.json"
        code = main(
            ["trace", "--n", "4", "--eps", "0.5", "--seed", "0",
             "--trials", "2", "--metrics-out", str(out), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        artifact = load_metrics(out)
        lanes = {}
        for event in artifact["traceEvents"]:
            if event["name"] == "congest.round_seconds":
                lanes[event["tid"]] = lanes.get(event["tid"], 0) + 1
        trials = {t["trial"]: t for t in payload["trials"]}
        assert set(lanes) == set(trials)
        # Silent rounds of the schedule leave no span.
        for lane, count in lanes.items():
            assert 0 < count < trials[lane]["rounds"]
        rounds = [
            e for e in artifact["metrics"]["events"]
            if e["kind"] == "congest_round"
        ]
        assert len(rounds) == sum(lanes.values())
        assert all(r["messages"] > 0 for r in rounds)
        assert sum(r["messages"] for r in rounds) == sum(
            t["messages"] for t in trials.values()
        )


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
