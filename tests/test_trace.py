"""Tests for the :class:`Timeline` view over an ASM run's event log."""

from __future__ import annotations

from dataclasses import fields

from repro.analysis.trace import ProposalRoundRecord, Timeline
from repro.core.asm import asm
from repro.core.rand_asm import rand_asm
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.workloads.generators import complete_uniform, gnp_incomplete


def _timeline(prefs, eps, runner=asm, **kwargs):
    """Run ``runner`` with an enabled bundle; return (result, timeline)."""
    tel = Telemetry.create()
    result = runner(prefs, eps, telemetry=tel, **kwargs)
    return result, Timeline(tel.metrics.events)


# The class keeps its name so the test ids stay stable; it exercises
# the engine's event stream through Timeline.
class TestTraceObserver:
    def test_records_proposal_rounds(self):
        run, trace = _timeline(complete_uniform(16, seed=0), 0.5)
        assert len(trace.proposal_rounds) == run.proposal_rounds_executed
        assert all(
            isinstance(r, ProposalRoundRecord) for r in trace.proposal_rounds
        )

    def test_matching_size_monotone(self):
        """Lemma 1 seen through the trace: |M| never decreases."""
        _, trace = _timeline(gnp_incomplete(20, 0.4, seed=1), 0.3)
        sizes = [r.matching_size for r in trace.proposal_rounds]
        assert sizes == sorted(sizes)

    def test_good_men_monotone(self):
        """Good men never become bad (Lemma 6's proof observation)."""
        _, trace = _timeline(complete_uniform(20, seed=2), 0.4)
        goods = [r.good_men for r in trace.proposal_rounds]
        assert goods == sorted(goods)

    def test_quantile_match_boundaries(self):
        run, trace = _timeline(complete_uniform(12, seed=3), 0.5)
        assert (
            len(trace.quantile_match_boundaries)
            == run.quantile_match_calls_executed
        )
        assert trace.quantile_match_boundaries == sorted(
            trace.quantile_match_boundaries
        )
        assert trace.quantile_match_boundaries[-1] == (
            run.proposal_rounds_executed
        )

    def test_outer_iteration_stats(self):
        run, trace = _timeline(complete_uniform(12, seed=3), 0.5)
        assert trace.outer_iterations == run.outer_iterations

    def test_records_and_table(self):
        _, trace = _timeline(complete_uniform(12, seed=4), 0.5)
        records = trace.records()
        assert records and isinstance(records[0], dict)
        assert [r["index"] for r in records] == list(range(len(records)))
        text = trace.timeline_table(max_rows=3)
        assert "timeline" in text
        if len(trace.proposal_rounds) > 3:
            assert "more rounds" in text

    def test_convergence_summary(self):
        _, trace = _timeline(complete_uniform(16, seed=5), 0.3)
        summary = trace.convergence_summary()
        assert summary["final_matching_size"] == 16
        assert 1 <= summary["rounds_to_90pct_matched"] <= summary[
            "proposal_rounds"
        ]
        assert summary["total_proposals"] > 0

    def test_empty_trace_summary(self):
        summary = Timeline([]).convergence_summary()
        assert summary["proposal_rounds"] == 0
        assert summary["rounds_to_90pct_matched"] is None

    def test_observer_does_not_change_behavior(self):
        """An enabled telemetry bundle leaves the result untouched."""
        prefs = gnp_incomplete(16, 0.5, seed=7)
        plain = asm(prefs, 0.3)
        traced, _ = _timeline(prefs, 0.3)
        assert plain == traced

    def test_works_with_rand_asm(self):
        _, trace = _timeline(
            complete_uniform(12, seed=6), 0.4, runner=rand_asm, seed=1
        )
        assert trace.proposal_rounds

    def test_all_unmatched_summary_has_no_90pct_round(self):
        """Regression: a run whose final matching is empty must report
        ``rounds_to_90pct_matched = None``, not round 1 (0.9 * 0 == 0 is
        trivially reached immediately)."""
        reg = MetricsRegistry()
        zeros = {f.name: 0 for f in fields(ProposalRoundRecord)}
        for i in range(3):
            reg.emit("proposal_round", **{**zeros, "index": i})
        summary = Timeline(reg.events).convergence_summary()
        assert summary["proposal_rounds"] == 3
        assert summary["final_matching_size"] == 0
        assert summary["rounds_to_90pct_matched"] is None

    def test_reloaded_event_file_gives_the_same_timeline(self, tmp_path):
        from repro.io import load_metrics, save_metrics

        tel = Telemetry.create()
        asm(gnp_incomplete(18, 0.4, seed=8), 0.4, telemetry=tel)
        path = tmp_path / "metrics.json"
        save_metrics(tel.metrics, path)
        records = load_metrics(path)["metrics"]["events"]
        live = Timeline(tel.metrics.events)
        loaded = Timeline(records)
        assert loaded.records() == live.records()
        assert loaded.timeline_table() == live.timeline_table()
        assert loaded.convergence_summary() == live.convergence_summary()
        assert loaded.outer_iterations == live.outer_iterations
        assert loaded.quantile_match_boundaries == (
            live.quantile_match_boundaries
        )
