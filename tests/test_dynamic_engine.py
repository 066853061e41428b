"""Equivalence and contract tests for ``repro.dynamic.engine``.

The two load-bearing properties from the issue:

1. **Stability contract** — after *every* delta the engine's exact
   ε never exceeds ``max(slo.target_eps, ε of a full ASM re-run on a
   frozen snapshot)``: localized repair plus the SLO fallback is never
   worse than re-solving from scratch would certify.
2. **Index equivalence** — after every delta the dynamic index agrees
   exactly with a fresh index on the frozen market, and the engine's
   ``MutableMatching`` mirror agrees with the index partner state.

Plus: bit-for-bit determinism of the outcome stream, the fallback
path, and parameter validation.
"""

from __future__ import annotations

import pytest

from repro.analysis.stability import count_blocking_pairs
from repro.core.asm import asm
from repro.dynamic import (
    AddEdge,
    ArriveMan,
    DeltaOutcome,
    DepartWoman,
    DynamicMatchingEngine,
    RemoveEdge,
    SwapManPrefs,
    delta_from_dict,
    delta_kind,
    delta_to_dict,
)
from repro.dynamic.deltas import (
    ArriveWoman,
    DepartMan,
    SwapWomanPrefs,
)
from repro.errors import InvalidParameterError
from repro.trace.slo import StabilitySLO
from repro.workloads import ChurnConfig, churn_stream
from repro.workloads.generators import (
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
    master_list,
)
from tests.helpers import assert_freeze_both_ways

ALL_DELTAS = [
    AddEdge(man=1, woman=2, man_pos=0, woman_pos=1),
    RemoveEdge(man=0, woman=3),
    SwapManPrefs(man=2, pos=1),
    SwapWomanPrefs(woman=1, pos=0),
    ArriveMan(prefs=(0, 2), positions=(1, 0)),
    ArriveWoman(prefs=(1,), positions=(2,)),
    DepartMan(man=3),
    DepartWoman(woman=0),
]


class TestDeltaSerialization:
    @pytest.mark.parametrize("delta", ALL_DELTAS, ids=delta_kind)
    def test_round_trip(self, delta):
        doc = delta_to_dict(delta)
        assert doc["kind"] == delta_kind(delta)
        assert delta_from_dict(doc) == delta

    def test_json_safe(self):
        import json

        for delta in ALL_DELTAS:
            rebuilt = delta_from_dict(
                json.loads(json.dumps(delta_to_dict(delta)))
            )
            assert rebuilt == delta

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            delta_from_dict({"kind": "nope"})


class TestValidation:
    def test_bad_eps(self):
        with pytest.raises(InvalidParameterError):
            DynamicMatchingEngine(complete_uniform(3, seed=0), 0.0)

    def test_bad_radius(self):
        with pytest.raises(InvalidParameterError):
            DynamicMatchingEngine(
                complete_uniform(3, seed=0), 0.5, repair_radius=-1
            )

    def test_bad_passes(self):
        with pytest.raises(InvalidParameterError):
            DynamicMatchingEngine(
                complete_uniform(3, seed=0), 0.5, repair_passes=0
            )

    @pytest.mark.parametrize("solver", ["fast", False])
    def test_bad_solver_rejected_at_construction(self, solver):
        """An empty market runs no solve in the constructor, so the
        choice must be checked there, before any delta lands."""
        with pytest.raises(InvalidParameterError):
            DynamicMatchingEngine(None, 0.5, solver_optimized=solver)

    def test_unknown_delta_type(self):
        engine = DynamicMatchingEngine(complete_uniform(3, seed=0), 0.5)
        with pytest.raises(InvalidParameterError):
            engine.apply("not a delta")


class TestWarmStart:
    def test_warm_start_meets_target(self):
        engine = DynamicMatchingEngine(complete_uniform(8, seed=1), 0.25)
        assert engine.current_eps() <= 0.25
        engine.index.verify()

    def test_warm_start_solves_the_given_profile(self, monkeypatch):
        """Construction solves ``prefs`` itself, without a frozen copy,
        and indexes the blocking pairs of that solve's matching."""
        from repro.dynamic.market import DynamicMarket
        from repro.perf.blocking_index import BlockingPairIndex

        def refuse(self):
            raise AssertionError("freeze() called during construction")

        prefs = master_list(30, 0.1, seed=0)
        with monkeypatch.context() as patch:
            patch.setattr(DynamicMarket, "freeze", refuse)
            engine = DynamicMatchingEngine(prefs, 1.0)
        solved = asm(prefs, 1.0).matching
        expected = BlockingPairIndex(prefs, solved).pairs()
        assert expected  # the warm start leaves blocking pairs to index
        assert engine.index.pairs() == expected
        assert engine.current_matching() == solved
        engine.index.verify()


def _drive(prefs, deltas, *, target_eps, **kwargs):
    """Run a stream; after every delta check the equivalence contract."""
    engine = DynamicMatchingEngine(
        prefs,
        target_eps,
        slo=StabilitySLO(target_eps=target_eps, deadline_rounds=0),
        **kwargs,
    )
    for delta in deltas:
        outcome = engine.apply(delta)
        # 1. index exactness (vs fresh index + full-scan oracle)
        engine.index.verify()
        assert_freeze_both_ways(engine.market)
        # 2. stability contract: never worse than what a full re-run
        #    would certify
        frozen = engine.market.freeze()
        if frozen.num_edges:
            full = asm(frozen, target_eps)
            full_eps = (
                count_blocking_pairs(frozen, full.matching)
                / frozen.num_edges
            )
            assert outcome.eps_after <= max(target_eps, full_eps) + 1e-12
        assert outcome.eps_after == engine.trajectory[-1][1]
    return engine


class TestEquivalenceUnderChurn:
    @pytest.mark.parametrize("seed", range(3))
    def test_gnp_churn(self, seed):
        prefs = gnp_incomplete(10, 0.5, seed=seed)
        deltas = churn_stream(prefs, ChurnConfig(steps=25), seed)
        engine = _drive(prefs, deltas, target_eps=0.25)
        assert engine.deltas_applied == len(deltas)
        assert engine.worst_eps() <= 0.25 + 1e-12

    def test_bounded_degree_churn(self):
        prefs = bounded_degree(12, 4, seed=7)
        deltas = churn_stream(prefs, ChurnConfig(steps=30), 7)
        _drive(prefs, deltas, target_eps=0.5)

    def test_zero_radius_leans_on_fallback(self):
        # repair disabled: the SLO net alone must still hold the bound
        prefs = complete_uniform(8, seed=3)
        deltas = churn_stream(prefs, ChurnConfig(steps=20), 3)
        engine = _drive(
            prefs, deltas, target_eps=0.1, repair_radius=0
        )
        assert engine.worst_eps() <= 0.1 + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_radius_runs_no_repair(self, seed):
        prefs = bounded_degree(40, 4, seed=seed)
        deltas = churn_stream(prefs, ChurnConfig(steps=60), seed)
        engine = DynamicMatchingEngine(prefs, 0.5, repair_radius=0)
        for outcome in engine.apply_stream(deltas):
            assert (
                outcome.repair_passes,
                outcome.marriages,
                outcome.region_men,
                outcome.region_women,
            ) == (0, 0, 0, 0)
        assert engine.marriages == 0

    def test_fallback_fires_and_counts(self):
        prefs = complete_uniform(10, seed=2)
        deltas = churn_stream(prefs, ChurnConfig(steps=40), 2)
        engine = DynamicMatchingEngine(
            prefs,
            0.5,
            repair_radius=0,
            slo=StabilitySLO(target_eps=0.01, deadline_rounds=0),
        )
        outcomes = engine.apply_stream(deltas)
        assert engine.fallbacks == sum(1 for o in outcomes if o.fallback)
        assert engine.fallbacks > 0
        assert all(o.eps_after <= 0.01 + 1e-12 for o in outcomes)


class _ScanRepairEngine(DynamicMatchingEngine):
    """Reference engine: the repair that scans each region man's list.

    Every region man walks his whole preference list and probes the
    index once per entry; the engine under test reads the index's
    per-man view instead.  Both must take the same marriages.
    """

    def _repair(self, region_men, region_women):
        index = self.index
        passes = marriages = 0
        for _ in range(self.repair_passes):
            proposals = {}
            for m in region_men:
                for w in self.market.men_lists[m]:
                    if w in region_women and index.contains(m, w):
                        proposals.setdefault(w, []).append(m)
                        break
            if not proposals:
                break
            passes += 1
            for w in sorted(proposals):
                suitors = [m for m in proposals[w] if index.contains(m, w)]
                if not suitors:
                    continue
                best = min(suitors, key=self.market.women_rank[w].__getitem__)
                displaced_w = index.man_partner(best)
                displaced_m = index.woman_partner(w)
                index.satisfy(best, w)
                marriages += 1
                if displaced_m is not None:
                    region_men.setdefault(displaced_m, None)
                if displaced_w is not None:
                    region_women.setdefault(displaced_w, None)
        return passes, marriages


def _assert_view_is_pool(index):
    """``blocking_women(m)`` is ``{w : (m, w) blocks}`` for every man."""
    by_man = {}
    for m, w in index.pairs():
        by_man.setdefault(m, set()).add(w)
    for m in range(index.market.n_men):
        assert set(index.blocking_women(m)) == by_man.get(m, set())
        if not index.market.men_lists[m]:  # tombstoned or edgeless
            assert not index.blocking_women(m)


class TestRepairOracle:
    """The view-driven repair takes exactly the scan's marriages."""

    MARKETS = {
        "gnp": lambda seed: gnp_incomplete(12, 0.5, seed=seed),
        "bounded": lambda seed: bounded_degree(14, 4, seed=seed),
        "complete": lambda seed: complete_uniform(9, seed=seed),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("market", sorted(MARKETS))
    def test_matches_scan_reference(self, market, radius, eps, seed):
        prefs = self.MARKETS[market](seed)
        deltas = churn_stream(prefs, ChurnConfig(steps=60), seed)
        engine = DynamicMatchingEngine(prefs, eps, repair_radius=radius)
        reference = _ScanRepairEngine(prefs, eps, repair_radius=radius)
        departures = 0
        for delta in deltas:
            assert engine.apply(delta) == reference.apply(delta)
            _assert_view_is_pool(engine.index)
            assert_freeze_both_ways(engine.market)
            if isinstance(delta, DepartMan):
                departures += 1
                assert not engine.index.blocking_women(delta.man)
        assert engine.trajectory == reference.trajectory
        assert engine.current_matching() == reference.current_matching()
        assert departures  # the stream tombstoned at least one man
        if radius:
            assert engine.marriages > 0  # the repair did run


class TestDeterminism:
    def test_outcome_stream_is_replayable(self):
        prefs = gnp_incomplete(9, 0.6, seed=11)
        deltas = churn_stream(prefs, ChurnConfig(steps=30), 11)

        def run():
            engine = DynamicMatchingEngine(prefs, 0.25)
            outcomes = engine.apply_stream(deltas)
            return outcomes, sorted(engine.current_matching().pairs())

        first, second = run(), run()
        assert first == second
        assert all(isinstance(o, DeltaOutcome) for o in first[0])

    def test_churn_stream_is_pure(self):
        prefs = complete_uniform(6, seed=0)
        config = ChurnConfig(steps=20)
        assert churn_stream(prefs, config, 9) == churn_stream(
            prefs, config, 9
        )
        assert churn_stream(prefs, config, 9) != churn_stream(
            prefs, config, 10
        )


class TestReport:
    def test_report_shape(self):
        prefs = complete_uniform(6, seed=4)
        engine = DynamicMatchingEngine(prefs, 0.5)
        engine.apply(RemoveEdge(man=0, woman=engine.index.man_partner(0)))
        report = engine.report()
        assert report["deltas_applied"] == 1
        assert report["target_eps"] == 0.5
        assert report["num_edges"] == engine.market.num_edges
        assert len(report["trajectory"]) == 1
        import json

        json.dumps(report)  # JSON-safe
